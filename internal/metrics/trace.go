package metrics

import (
	"fmt"
	"sort"
)

// Trace collector defaults: sample 1 in 2^DefaultTraceShift packets (by
// hashed id), keep at most DefaultTraceCap events per run. These are
// compile-time constants on purpose -- the registry's "trace" name alone
// then fully determines the collector's payload, so cached sweep entries
// keyed on a Metrics selection containing "trace" can never silently hold
// a differently-configured stream (see scenario.SimParams.Metrics).
const (
	DefaultTraceShift = 10      // 1-in-1024 sampling
	DefaultTraceCap   = 1 << 14 // events kept before the oldest are overwritten
)

// TraceKind distinguishes the three per-packet event types.
type TraceKind uint8

const (
	TraceInject TraceKind = iota
	TraceHop
	TraceDeliver
)

var traceKindNames = [...]string{"inject", "hop", "deliver"}

func (k TraceKind) String() string {
	if int(k) < len(traceKindNames) {
		return traceKindNames[k]
	}
	return "unknown"
}

// MarshalJSON renders the kind as its name, keeping exported streams
// readable without a legend.
func (k TraceKind) MarshalJSON() ([]byte, error) { return []byte(`"` + k.String() + `"`), nil }

// UnmarshalJSON accepts the names MarshalJSON emits.
func (k *TraceKind) UnmarshalJSON(b []byte) error {
	for i, n := range traceKindNames {
		if string(b) == `"`+n+`"` {
			*k = TraceKind(i)
			return nil
		}
	}
	return fmt.Errorf("metrics: unknown trace kind %s", b)
}

// TraceTag records the routing decision made for a packet at injection
// time: TagMinimal for a direct (minimal) path, TagValiant for a
// committed indirect path through an intermediate router -- for the UGAL
// family this is the adaptive pick's outcome, for VAL it is every packet,
// for per-hop-adaptive algorithms (ANCA) the injection-time commitment is
// always minimal.
type TraceTag uint8

const (
	TagMinimal TraceTag = iota
	TagValiant
)

var traceTagNames = [...]string{"min", "val"}

func (t TraceTag) String() string {
	if int(t) < len(traceTagNames) {
		return traceTagNames[t]
	}
	return "unknown"
}

// MarshalJSON renders the tag as its short name.
func (t TraceTag) MarshalJSON() ([]byte, error) { return []byte(`"` + t.String() + `"`), nil }

// UnmarshalJSON accepts the names MarshalJSON emits.
func (t *TraceTag) UnmarshalJSON(b []byte) error {
	for i, n := range traceTagNames {
		if string(b) == `"`+n+`"` {
			*t = TraceTag(i)
			return nil
		}
	}
	return fmt.Errorf("metrics: unknown trace tag %s", b)
}

// TraceEvent is one sampled per-packet event. ID packs the packet's
// identity as src<<32 | birth-cycle (an endpoint injects at most one
// packet per cycle, so the pair is unique and identical at every worker count).
// Fields that do not apply to a kind hold -1 (ints) or 0 (Latency):
// inject events carry Dst and Tag; hop events carry Port (the granted
// output) and VC (the next-hop virtual channel); deliver events carry
// Hops and Latency.
type TraceEvent struct {
	ID      uint64    `json:"id"`
	Cycle   int64     `json:"cycle"`
	Kind    TraceKind `json:"kind"`
	Router  int32     `json:"router"`
	Port    int32     `json:"port"`
	VC      int8      `json:"vc"`
	Tag     TraceTag  `json:"tag"`
	Dst     int32     `json:"dst"`
	Hops    int32     `json:"hops"`
	Latency int64     `json:"latency"`
}

// Src recovers the injecting endpoint from the packed ID.
func (e TraceEvent) Src() int32 { return int32(e.ID >> 32) }

// Trace records sampled per-packet event streams into a bounded ring
// buffer. Sampling is deterministic in the packet id -- a packet is
// traced iff the low shift bits of a mixed hash of its id are zero -- so
// the traced packet set depends only on the run, not on the ring size.
// When the ring fills, the oldest events are overwritten and counted in
// Dropped; Summarize reports the survivors ordered by cycle, id, kind.
type Trace struct {
	shift uint
	cap   int

	buf     []TraceEvent // ring storage, allocated at Attach
	head, n int

	recorded int64 // events offered to the ring
	dropped  int64 // oldest events overwritten
}

// NewTrace returns a trace collector sampling 1 in 2^shift packets with
// room for capacity events. NewTrace(0, c) traces every packet.
func NewTrace(shift uint, capacity int) *Trace {
	if capacity < 1 {
		capacity = DefaultTraceCap
	}
	return &Trace{shift: shift, cap: capacity}
}

// Attach implements Collector: the ring backing is allocated here, once,
// so recording never allocates.
func (t *Trace) Attach(m Meta) {
	t.buf = make([]TraceEvent, t.cap)
	t.head, t.n = 0, 0
	t.recorded, t.dropped = 0, 0
}

// traceHash finalises the packet id into well-mixed bits (the splitmix64
// finaliser); low-bit tests on the result give an unbiased 1-in-2^shift
// sample even though ids themselves are highly structured.
func traceHash(id uint64) uint64 {
	id ^= id >> 33
	id *= 0xff51afd7ed558ccd
	id ^= id >> 33
	id *= 0xc4ceb9fe1a85ec53
	id ^= id >> 33
	return id
}

// Sampled reports whether packet id is in the deterministic sample set.
func (t *Trace) Sampled(id uint64) bool {
	return traceHash(id)&(1<<t.shift-1) == 0
}

// SampleMask implements PacketSampler: the Set pre-filters unsampled
// packet events with this mask before fanning out, so the 1023-in-1024
// cold path costs one hash and a compare instead of an interface call
// per observer. Mask 0 (shift 0: trace everything) disables the filter.
func (t *Trace) SampleMask() uint64 { return 1<<t.shift - 1 }

// record appends an event to the ring, overwriting the oldest when full.
func (t *Trace) record(ev TraceEvent) {
	t.recorded++
	if t.n < len(t.buf) {
		i := t.head + t.n
		if i >= len(t.buf) {
			i -= len(t.buf)
		}
		t.buf[i] = ev
		t.n++
		return
	}
	t.buf[t.head] = ev
	t.head++
	if t.head == len(t.buf) {
		t.head = 0
	}
	t.dropped++
}

// PacketInject implements PacketObserver.
//
//sf:hotpath
func (t *Trace) PacketInject(id uint64, dst, router int32, tag TraceTag, cycle int64) {
	if !t.Sampled(id) {
		return
	}
	t.record(TraceEvent{ID: id, Cycle: cycle, Kind: TraceInject, Router: router,
		Port: -1, VC: -1, Tag: tag, Dst: dst, Hops: -1})
}

// PacketHop implements PacketObserver.
//
//sf:hotpath
func (t *Trace) PacketHop(id uint64, router, port int32, vc int8, cycle int64) {
	if !t.Sampled(id) {
		return
	}
	t.record(TraceEvent{ID: id, Cycle: cycle, Kind: TraceHop, Router: router,
		Port: port, VC: vc, Dst: -1, Hops: -1})
}

// PacketDeliver implements PacketObserver.
//
//sf:hotpath
func (t *Trace) PacketDeliver(id uint64, router, hops int32, latency, cycle int64) {
	if !t.Sampled(id) {
		return
	}
	t.record(TraceEvent{ID: id, Cycle: cycle, Kind: TraceDeliver, Router: router,
		Port: -1, VC: -1, Dst: -1, Hops: hops, Latency: latency})
}

// ordered returns the ring's live events oldest-first.
func (t *Trace) ordered() []TraceEvent {
	out := make([]TraceEvent, 0, t.n)
	for i := 0; i < t.n; i++ {
		j := t.head + i
		if j >= len(t.buf) {
			j -= len(t.buf)
		}
		out = append(out, t.buf[j])
	}
	return out
}

// sortTraceEvents puts events in canonical order: by cycle, then packet
// id, then kind. A packet produces at most one event of each kind per
// cycle, so the order is total and independent of the order the engine
// visits routers within a cycle.
func sortTraceEvents(evs []TraceEvent) {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Cycle != evs[j].Cycle {
			return evs[i].Cycle < evs[j].Cycle
		}
		if evs[i].ID != evs[j].ID {
			return evs[i].ID < evs[j].ID
		}
		return evs[i].Kind < evs[j].Kind
	})
}

// Summarize implements Collector.
func (t *Trace) Summarize(out *Summary) {
	evs := t.ordered()
	sortTraceEvents(evs)
	ids := make(map[uint64]struct{})
	for _, e := range evs {
		ids[e.ID] = struct{}{}
	}
	out.Trace = &TraceStats{
		SampleEvery: 1 << t.shift,
		Capacity:    t.cap,
		Recorded:    t.recorded,
		Dropped:     t.dropped,
		Packets:     len(ids),
		Events:      evs,
	}
}

// TraceStats is the trace collector's summary section: the canonically
// ordered sampled event stream plus its bookkeeping. Recorded counts
// events offered to the ring; Dropped counts ring overwrites (when
// non-zero, Events holds the newest Capacity events of the run).
type TraceStats struct {
	SampleEvery int64        `json:"sample_every"`
	Capacity    int          `json:"capacity"`
	Recorded    int64        `json:"recorded"`
	Dropped     int64        `json:"dropped"`
	Packets     int          `json:"packets"`
	Events      []TraceEvent `json:"events,omitempty"`
}

// TraceHopStep is one reconstructed hop of a packet's path.
type TraceHopStep struct {
	Router int32 `json:"router"`
	Port   int32 `json:"port"`
	VC     int8  `json:"vc"`
	Cycle  int64 `json:"cycle"`
}

// TracePath is one sampled packet's reconstructed journey. Complete
// paths saw both endpoints of the packet's life inside the ring; a path
// is incomplete when its inject or deliver event was overwritten (or the
// packet was still in flight when the run ended).
type TracePath struct {
	ID        uint64         `json:"id"`
	Src       int32          `json:"src"`
	Dst       int32          `json:"dst"`
	Tag       TraceTag       `json:"tag"`
	Injected  int64          `json:"injected"`  // cycle; -1 if the inject event is missing
	Delivered int64          `json:"delivered"` // cycle; -1 if the deliver event is missing
	Latency   int64          `json:"latency"`   // from the deliver event; 0 when missing
	Hops      []TraceHopStep `json:"hops"`
	Complete  bool           `json:"complete"`
}

// Paths reconstructs per-packet journeys from the event stream, ordered
// by (first event cycle, id). Events within a packet are already in
// cycle order thanks to the canonical sort.
func (s *TraceStats) Paths() []TracePath {
	byID := make(map[uint64]*TracePath)
	var order []uint64
	for _, e := range s.Events {
		p := byID[e.ID]
		if p == nil {
			p = &TracePath{ID: e.ID, Src: e.Src(), Dst: -1, Injected: -1, Delivered: -1}
			byID[e.ID] = p
			order = append(order, e.ID)
		}
		switch e.Kind {
		case TraceInject:
			p.Injected = e.Cycle
			p.Dst = e.Dst
			p.Tag = e.Tag
		case TraceHop:
			p.Hops = append(p.Hops, TraceHopStep{Router: e.Router, Port: e.Port, VC: e.VC, Cycle: e.Cycle})
		case TraceDeliver:
			p.Delivered = e.Cycle
			p.Latency = e.Latency
			if p.Dst < 0 {
				p.Dst = e.Router // best effort: ejecting router, not endpoint
			}
		}
	}
	out := make([]TracePath, 0, len(order))
	for _, id := range order {
		p := byID[id]
		p.Complete = p.Injected >= 0 && p.Delivered >= 0
		out = append(out, *p)
	}
	return out
}
