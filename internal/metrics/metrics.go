// Package metrics is the simulator's streaming measurement pipeline: a
// small Collector interface with fixed-signature observe hooks, a table
// of named stock collectors, and a structured Summary.
//
// Instead of the engine appending one float per delivered packet and
// sorting at the end, every collector keeps a fixed-footprint streaming aggregate (histogram
// buckets, per-channel counters, per-interval counters, per-source
// counters) that is allocated once at Attach time and only incremented
// during the run -- the observe hooks are zero-allocation by construction,
// which is what lets the engine keep its steady-state zero-alloc
// contract (sim.TestStepZeroAlloc) with collectors enabled.
//
// # Determinism
//
// A simulation owns exactly one Set, and the engine calls its hooks from
// the stepping goroutine in one order -- endpoint order for injections,
// ascending router id for grants (link departures with them) and deliveries.
// A collector therefore sees the same call sequence on every run with the
// same seed and needs to do nothing to keep its summary bit-identical,
// order-sensitive state (a ring that overflows) included
// (sim.TestCollectorParityParallel and sim.TestTraceOverflowParity pin it).
//
// # Hook contract
//
// The engine calls the hooks with these windows (warmup W, measurement M):
//
//   - Inject(src, cycle): one call per measured packet injection; always
//     W <= cycle < W+M by construction.
//   - Hop(router, port, cycle): one call per flit departing on a network
//     channel at a cycle inside the measurement window. The engine reports
//     it when it grants the flit the output, up to Speedup-1 cycles before
//     the departure the cycle argument names, so calls do not arrive in
//     cycle order: a collector that bins hops by time must key on the
//     argument, not on the order of the calls.
//   - Deliver(src, hops, latency, cycle): one call per measured packet
//     delivery, including deliveries during the drain (cycle >= W+M), so
//     latency aggregates cover exactly the population behind
//     Result.AvgLatency.
//
// All hooks run on the simulator's stepping goroutine; collectors need no
// internal locking.
package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Meta describes the simulated system to a collector at Attach time; it is
// everything a fixed-footprint collector needs to size its state.
type Meta struct {
	Routers   int
	Endpoints int
	// Degrees[r] is router r's network (non-ejection) port count; Hop
	// observations for router r carry ports in [0, Degrees[r]).
	Degrees []int32
	NumVCs  int
	Warmup  int64
	Measure int64
}

// WindowEnd returns the first cycle after the measurement window.
func (m Meta) WindowEnd() int64 { return m.Warmup + m.Measure }

// Collector is one streaming metric. Implementations allocate all state
// in Attach and observe the run through the fixed-signature hook
// interfaces below, implementing exactly the ones they consume -- the Set
// fans each observation out only to its observers, so a hook nobody
// watches costs nothing in the engine hot path (~10^4 observations per
// cycle make per-call dispatch the dominant pipeline cost). Hook bodies
// must not allocate. Summarize writes the collector's section of the
// shared Summary.
type Collector interface {
	Attach(m Meta)
	Summarize(out *Summary)
}

// InjectObserver receives one call per measured packet injection.
type InjectObserver interface {
	Inject(src int32, cycle int64)
}

// HopObserver receives one call per flit departing on a network channel at
// a cycle inside the measurement window, made at grant time and carrying the
// departure cycle (see the hook contract: key on the argument).
type HopObserver interface {
	Hop(router, port int32, cycle int64)
}

// DeliverObserver receives one call per measured packet delivery
// (including drain-phase deliveries).
type DeliverObserver interface {
	Deliver(src, hops int32, latency, cycle int64)
}

// PacketObserver receives identity-carrying per-packet events for
// measured packets: one PacketInject per injection (tag is the
// injection-time path decision), one PacketHop per switch allocation
// grant onto a network channel (port is the granted output, vc the
// next-hop virtual channel) and one PacketDeliver per delivery (drain
// included). The id packs src<<32 | birth-cycle. PacketHop fires at grant
// time like Hop, but carries the grant cycle where Hop carries the link
// departure cycle, which staging behind earlier grants can delay by up to
// Speedup-1 cycles.
type PacketObserver interface {
	PacketInject(id uint64, dst, router int32, tag TraceTag, cycle int64)
	PacketHop(id uint64, router, port int32, vc int8, cycle int64)
	PacketDeliver(id uint64, router, hops int32, latency, cycle int64)
}

// PacketSampler is an optional capability of PacketObservers that ignore
// every event whose traceHash(id) has a bit in common with their mask
// (hashed-id subsampling, like the trace collector's 1-in-2^k). When all
// of a Set's packet observers declare masks, the Set hoists their
// intersection in front of the fan-out: the engine calls the packet hooks
// once per allocation grant (~10^4/cycle at scale), so the not-sampled
// path must cost a hash and a compare, not an interface call per
// observer. A mask of 0 means "observes every packet" and disables the
// hoisted filter.
type PacketSampler interface {
	SampleMask() uint64
}

// Summary is the structured result of a collector set: one optional
// section per stock collector kind. It marshals to stable JSON (sections
// are structs and ordered slices, never maps), so byte-equality of encoded
// summaries is a meaningful parity check.
type Summary struct {
	Latency  *LatencyStats  `json:"latency,omitempty"`
	Channels *ChannelStats  `json:"channels,omitempty"`
	Series   *SeriesStats   `json:"series,omitempty"`
	Fairness *FairnessStats `json:"fairness,omitempty"`
	Trace    *TraceStats    `json:"trace,omitempty"`
}

// Set is an ordered collection of collectors driven as one. Each hook
// fans out to the collectors that observe it (capability sub-slices,
// computed once at construction), in registration order.
type Set struct {
	cs  []Collector
	inj []InjectObserver
	hop []HopObserver
	del []DeliverObserver
	pkt []PacketObserver

	// pktMask is the intersection of the packet observers' sampling masks
	// (see PacketSampler); events failing it are dropped before fan-out.
	// 0 disables the pre-filter.
	pktMask uint64
}

// SetOf builds a set from explicit collector instances (NewSet resolves
// names instead).
func SetOf(cs ...Collector) *Set {
	s := &Set{cs: cs}
	for _, c := range cs {
		if o, ok := c.(InjectObserver); ok {
			s.inj = append(s.inj, o)
		}
		if o, ok := c.(HopObserver); ok {
			s.hop = append(s.hop, o)
		}
		if o, ok := c.(DeliverObserver); ok {
			s.del = append(s.del, o)
		}
		if o, ok := c.(PacketObserver); ok {
			s.pkt = append(s.pkt, o)
		}
	}
	// Hoist the packet-sampling pre-filter: sound only if every packet
	// observer declares a mask (intersection: an event surviving the
	// hoisted test is re-checked by each observer's own mask, so the
	// filter can only skip events nobody would record).
	if len(s.pkt) > 0 {
		mask := ^uint64(0)
		for _, o := range s.pkt {
			ps, ok := o.(PacketSampler)
			if !ok {
				mask = 0
				break
			}
			mask &= ps.SampleMask()
		}
		s.pktMask = mask
	}
	return s
}

// ObservesHops reports whether any collector consumes Hop observations.
// The engine calls Hop once per network grant, its hottest observe site, so
// it skips the call (a single flag test) when nothing would listen.
func (s *Set) ObservesHops() bool { return len(s.hop) > 0 }

// ObservesPackets reports whether any collector consumes per-packet
// events; the engine skips the per-grant trace sites entirely (a single
// flag test) when nothing would listen.
func (s *Set) ObservesPackets() bool { return len(s.pkt) > 0 }

// Attach sizes every collector for the described system.
func (s *Set) Attach(m Meta) {
	for _, c := range s.cs {
		c.Attach(m)
	}
}

// Inject fans the injection observation out to its observers.
//
//sf:hotpath
func (s *Set) Inject(src int32, cycle int64) {
	for _, c := range s.inj {
		c.Inject(src, cycle)
	}
}

// Hop fans the channel-departure observation out to its observers.
//
//sf:hotpath
func (s *Set) Hop(router, port int32, cycle int64) {
	for _, c := range s.hop {
		c.Hop(router, port, cycle)
	}
}

// Deliver fans the delivery observation out to its observers.
//
//sf:hotpath
func (s *Set) Deliver(src, hops int32, latency, cycle int64) {
	for _, c := range s.del {
		c.Deliver(src, hops, latency, cycle)
	}
}

// PacketInject fans the packet-injection event out to its observers.
//
//sf:hotpath
func (s *Set) PacketInject(id uint64, dst, router int32, tag TraceTag, cycle int64) {
	if traceHash(id)&s.pktMask != 0 {
		return
	}
	for _, c := range s.pkt {
		c.PacketInject(id, dst, router, tag, cycle)
	}
}

// PacketHop fans the allocation-grant event out to its observers.
//
//sf:hotpath
func (s *Set) PacketHop(id uint64, router, port int32, vc int8, cycle int64) {
	if traceHash(id)&s.pktMask != 0 {
		return
	}
	for _, c := range s.pkt {
		c.PacketHop(id, router, port, vc, cycle)
	}
}

// PacketDeliver fans the packet-delivery event out to its observers.
//
//sf:hotpath
func (s *Set) PacketDeliver(id uint64, router, hops int32, latency, cycle int64) {
	if traceHash(id)&s.pktMask != 0 {
		return
	}
	for _, c := range s.pkt {
		c.PacketDeliver(id, router, hops, latency, cycle)
	}
}

// Summary builds the set's structured summary.
func (s *Set) Summary() Summary {
	var out Summary
	for _, c := range s.cs {
		c.Summarize(&out)
	}
	return out
}

// --- stock collectors ---------------------------------------------------

// collectors is the table of stock collectors in presentation order:
// sweep specs and the -metrics CLI flags select collectors by these
// names, and desc is the line the CLIs' -list output shows.
var collectors = []struct {
	name, desc string
	factory    func() Collector
}{
	{"latency", "log-bucketed latency histogram: P50/P95/P99 (nearest-rank), min/max/mean",
		func() Collector { return NewLatencyHist() }},
	{"channels", "per-directed-channel flit counts: max/mean utilisation, hottest channels",
		func() Collector { return NewChannelLoads(DefaultTopChannels) }},
	{"series", "per-interval delivered/injected/occupancy time series over the window",
		func() Collector { return NewSeries(0) }},
	{"fairness", "per-source delivery counts: Jain index, worst-source latency",
		func() Collector { return NewFairness() }},
	{"trace", "sampled per-packet event stream (1-in-1024 by hashed id): inject/hop/deliver with cycle, router/port, VC and path decision",
		func() Collector { return NewTrace(DefaultTraceShift, DefaultTraceCap) }},
}

// Names lists the collector names in table order.
func Names() []string {
	out := make([]string, len(collectors))
	for i, c := range collectors {
		out[i] = c.name
	}
	return out
}

// UnknownError names a collector that is not in the table and enumerates
// the valid names, matching the scenario package's error style.
type UnknownError struct {
	Name  string
	Known []string
}

func (e *UnknownError) Error() string {
	return fmt.Sprintf("metrics: unknown collector %q (known: %s)", e.Name, strings.Join(e.Known, " "))
}

// factory finds the named collector's constructor; an unknown name fails
// with the valid set enumerated.
func factory(name string) (func() Collector, error) {
	for _, c := range collectors {
		if c.name == name {
			return c.factory, nil
		}
	}
	return nil, &UnknownError{Name: name, Known: Names()}
}

// New builds a fresh collector by name.
func New(name string) (Collector, error) {
	f, err := factory(name)
	if err != nil {
		return nil, err
	}
	return f(), nil
}

// ParseNames splits a comma-separated collector selection ("latency,
// channels") into trimmed names, dropping empties. "all" expands to every
// collector in the table.
func ParseNames(spec string) []string {
	if strings.TrimSpace(spec) == "all" {
		return Names()
	}
	var names []string
	for _, n := range strings.Split(spec, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

// CheckNames validates a comma-separated collector selection without
// building anything; unknown names fail with the valid set enumerated. It
// walks the names ParseNames would return, in order, without building
// the list: it runs in every sim.Config.Check and allocates nothing on
// success. (strings.SplitSeq would: its iterator is an indirect call, so
// the loop body escapes.)
func CheckNames(spec string) error {
	if strings.TrimSpace(spec) == "all" {
		return nil
	}
	for more := true; more; {
		var n string
		n, spec, more = strings.Cut(spec, ",")
		if n = strings.TrimSpace(n); n == "" {
			continue
		}
		if _, err := factory(n); err != nil {
			return err
		}
	}
	return nil
}

// NewSet resolves a comma-separated collector selection into a fresh set.
// An empty spec yields an empty set.
func NewSet(spec string) (*Set, error) {
	names := ParseNames(spec)
	cs := make([]Collector, 0, len(names))
	for _, n := range names {
		c, err := New(n)
		if err != nil {
			return nil, err
		}
		cs = append(cs, c)
	}
	return SetOf(cs...), nil
}

// Describe returns one "name: description" line per collector, for -list
// style CLI output.
func Describe() string {
	var b strings.Builder
	for _, c := range collectors {
		fmt.Fprintf(&b, "  %-10s %s\n", c.name, c.desc)
	}
	return b.String()
}

// sortChannels orders loads by flits descending, ties broken by (router,
// port) ascending so summaries are deterministic.
func sortChannels(loads []ChannelLoad) {
	sort.Slice(loads, func(i, j int) bool {
		if loads[i].Flits != loads[j].Flits {
			return loads[i].Flits > loads[j].Flits
		}
		if loads[i].Router != loads[j].Router {
			return loads[i].Router < loads[j].Router
		}
		return loads[i].Port < loads[j].Port
	})
}
