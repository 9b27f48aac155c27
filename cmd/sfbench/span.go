package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"slimfly/internal/export"
)

// span is one timed call into a layer. Spans of one rep, job or request
// share an id; a span's parent is the innermost span with the same id
// that was open when it started, so the benchmark's wrappers (the timing
// Store, the HTTP handler wrapper) nest under the rep that caused them
// without a handle being threaded through the program under test.
type span struct {
	Name   string
	ID     string
	Parent int // index into tracer.spans, -1 for a root
	Lane   int // display row: a root takes a free lane, children inherit it
	Start  time.Duration
	End    time.Duration
}

// tracer records spans in memory; they are written out when the run
// ends. A nil *tracer records nothing, so un-traced runs share the code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  map[string][]int // id -> stack of open span indices
	lanes []bool           // lane in use by an open root
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: make(map[string][]int)}
}

// spanRef closes the span it names.
type spanRef struct {
	t *tracer
	i int
}

// start opens a span.
func (t *tracer) start(id, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{Name: name, ID: id, Parent: -1, Start: now, End: -1}
	if stack := t.open[id]; len(stack) > 0 {
		s.Parent = stack[len(stack)-1]
		s.Lane = t.spans[s.Parent].Lane
	} else {
		s.Lane = -1
		for l, used := range t.lanes {
			if !used {
				s.Lane = l
				break
			}
		}
		if s.Lane < 0 {
			s.Lane = len(t.lanes)
			t.lanes = append(t.lanes, false)
		}
		t.lanes[s.Lane] = true
	}
	t.spans = append(t.spans, s)
	i := len(t.spans) - 1
	t.open[id] = append(t.open[id], i)
	return spanRef{t: t, i: i}
}

// end closes the span and returns its duration (0 on a nil tracer).
func (r spanRef) end() time.Duration {
	t := r.t
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[r.i]
	s.End = now
	stack := t.open[s.ID]
	for k := len(stack) - 1; k >= 0; k-- {
		if stack[k] == r.i {
			stack = append(stack[:k], stack[k+1:]...)
			break
		}
	}
	if len(stack) == 0 {
		delete(t.open, s.ID)
	} else {
		t.open[s.ID] = stack
	}
	if s.Parent < 0 {
		t.lanes[s.Lane] = false
	}
	return s.End - s.Start
}

// selfTime aggregates one span name: how many spans, their summed
// duration, and their summed self time.
type selfTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover. Children may overlap
// each other (two pool workers under one pass), so the covered part is
// the union of their intervals, clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfByName sums durations and self times per span name, in order of
// first appearance.
func (t *tracer) selfByName() []selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	var out []selfTime
	at := make(map[string]int)
	for i, s := range t.spans {
		k, ok := at[s.Name]
		if !ok {
			k = len(out)
			at[s.Name] = k
			out = append(out, selfTime{Name: s.Name})
		}
		out[k].Count++
		out[k].Total += s.End - s.Start
		out[k].Self += self[i]
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps), the form export.ValidateChromeTrace
// accepts and Perfetto opens beside a packet trace.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Cat: "sfbench", Ph: "X", TS: us(s.Start), Dur: us(s.End - s.Start),
			PID: 1, TID: s.Lane,
			Args: map[string]any{"id": s.ID, "span": i, "parent": s.Parent},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

func validateTraceFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return export.ValidateChromeTrace(f)
}
