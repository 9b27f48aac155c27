package export

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"slimfly/internal/metrics"
)

// WriteTraceJSONL writes the sampled packet-event stream as JSON Lines:
// one canonical-order TraceEvent object per line, the format for ad-hoc
// jq/pandas analysis (the Chrome form below is for Perfetto).
func WriteTraceJSONL(w io.Writer, ts *metrics.TraceStats) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends the newline JSONL needs
	for _, e := range ts.Events {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("export: trace jsonl: %w", err)
		}
	}
	return bw.Flush()
}

// chromeEvent is one entry of the Chrome trace-event JSON format (the
// "JSON Array Format" with a traceEvents wrapper), the subset Perfetto
// and chrome://tracing load: complete ("X"), instant ("i"), async
// begin/end ("b"/"e") and metadata ("M") events.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	ID   string         `json:"id,omitempty"`
	S    string         `json:"s,omitempty"` // instant-event scope
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the wrapped document form.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace renders the sampled packet-event stream as Chrome
// trace-event JSON loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. The mapping treats one simulated cycle as one
// microsecond of trace time:
//
//   - each traced packet becomes an async "b"/"e" pair (cat "packet",
//     id = packet id in hex) spanning injection to delivery, named by
//     its decision tag, so per-packet lifetimes group into one track;
//   - each hop becomes a 1-cycle complete event on the granting
//     router's process (pid = router) and output port's thread (tid =
//     port), so router/port occupancy reads directly off the timeline;
//   - injects and deliveries become instant events on the router they
//     occur at.
//
// Incomplete packets (deliver or inject lost to ring overwrite, or
// still in flight) contribute their surviving events only; the b/e pair
// is emitted only when both ends exist, keeping async nesting balanced.
func WriteChromeTrace(w io.Writer, ts *metrics.TraceStats) error {
	doc := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	for _, p := range ts.Paths() {
		pid := fmt.Sprintf("%#x", p.ID)
		if p.Complete {
			name := "pkt-" + p.Tag.String()
			args := map[string]any{
				"src": p.Src, "dst": p.Dst, "hops": len(p.Hops), "latency": p.Latency,
			}
			doc.TraceEvents = append(doc.TraceEvents,
				chromeEvent{Name: name, Cat: "packet", Ph: "b", TS: p.Injected, ID: pid, Args: args},
				chromeEvent{Name: name, Cat: "packet", Ph: "e", TS: p.Delivered, ID: pid})
		}
	}
	for _, e := range ts.Events {
		switch e.Kind {
		case metrics.TraceInject:
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: "inject", Cat: "endpoint", Ph: "i", TS: e.Cycle, S: "t",
				PID: int64(e.Router), TID: 0,
				Args: map[string]any{"packet": fmt.Sprintf("%#x", e.ID), "src": e.Src(), "dst": e.Dst, "tag": e.Tag.String()},
			})
		case metrics.TraceHop:
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: "hop", Cat: "router", Ph: "X", TS: e.Cycle, Dur: 1,
				PID: int64(e.Router), TID: int64(e.Port),
				Args: map[string]any{"packet": fmt.Sprintf("%#x", e.ID), "vc": e.VC},
			})
		case metrics.TraceDeliver:
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: "deliver", Cat: "endpoint", Ph: "i", TS: e.Cycle, S: "t",
				PID: int64(e.Router), TID: 0,
				Args: map[string]any{"packet": fmt.Sprintf("%#x", e.ID), "hops": e.Hops, "latency": e.Latency},
			})
		}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("export: chrome trace: %w", err)
	}
	return nil
}

// validPhases is the event-type set WriteChromeTrace emits plus the
// metadata type, i.e. what ValidateChromeTrace accepts.
var validPhases = map[string]bool{"X": true, "i": true, "b": true, "e": true, "M": true}

// ValidateChromeTrace checks a Chrome trace-event JSON document against
// the subset of the trace-event schema this package emits: a traceEvents
// array whose entries carry a known phase, a name, non-negative
// timestamps, non-negative durations on complete events, and balanced
// async begin/end pairs per (cat, id). Tests run it against traces of a
// golden scenario, written in process and by `sfsim -trace-out`, so the
// export format cannot drift into something Perfetto rejects.
func ValidateChromeTrace(r io.Reader) error {
	var doc struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("export: chrome trace validate: %w", err)
	}
	if doc.TraceEvents == nil {
		return fmt.Errorf("export: chrome trace validate: missing traceEvents array")
	}
	open := make(map[string]int) // async nesting depth per cat/id
	for i, ev := range doc.TraceEvents {
		var ph string
		if err := json.Unmarshal(ev["ph"], &ph); err != nil || !validPhases[ph] {
			return fmt.Errorf("export: event %d: bad phase %s", i, ev["ph"])
		}
		var name string
		if err := json.Unmarshal(ev["name"], &name); err != nil || name == "" {
			return fmt.Errorf("export: event %d: missing name", i)
		}
		if ph == "M" {
			continue // metadata events carry no timestamp
		}
		var ts float64
		if err := json.Unmarshal(ev["ts"], &ts); err != nil || ts < 0 {
			return fmt.Errorf("export: event %d (%s): bad ts %s", i, name, ev["ts"])
		}
		if ph == "X" {
			var dur float64
			if raw, ok := ev["dur"]; ok {
				if err := json.Unmarshal(raw, &dur); err != nil || dur < 0 {
					return fmt.Errorf("export: event %d (%s): bad dur %s", i, name, raw)
				}
			}
		}
		if ph == "b" || ph == "e" {
			var id string
			if err := json.Unmarshal(ev["id"], &id); err != nil || id == "" {
				return fmt.Errorf("export: event %d (%s): async event without id", i, name)
			}
			var cat string
			_ = json.Unmarshal(ev["cat"], &cat)
			key := cat + "\x00" + id
			if ph == "b" {
				open[key]++
			} else {
				open[key]--
				if open[key] < 0 {
					return fmt.Errorf("export: event %d (%s): async end without begin (id %s)", i, name, id)
				}
			}
		}
	}
	// Report the lexically first unbalanced pair: ranging the map directly
	// would make the error message depend on iteration order (a detrand
	// finding -- same malformed trace, different error text per run).
	unbalanced := make([]string, 0, len(open))
	for key, n := range open { //sf:order-insensitive(collects all keys; order restored by the sort below)
		if n != 0 {
			unbalanced = append(unbalanced, key)
		}
	}
	if len(unbalanced) > 0 {
		sort.Strings(unbalanced)
		key := unbalanced[0]
		return fmt.Errorf("export: unbalanced async pair: %q left open %d deep", key, open[key])
	}
	return nil
}
