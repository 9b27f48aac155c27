// Package sim is a cycle-based network simulator reproducing the
// methodology of Section V of the paper: single-flit packets injected by a
// Bernoulli process into input-queued virtual-channel routers with
// credit-based flow control. The modelled delays follow the paper: 2-cycle
// credit processing, 1-cycle channel/switch-allocation/VC-allocation
// stages, internal crossbar speedup of 2 over the channel rate, and a
// configurable total buffering per port (64 flits by default).
//
// There is one engine and one schedule: every cycle, each active router in
// ascending id order gathers its requests and then grants them, applying
// each grant as it is chosen (allocRouter), all on the goroutine that calls
// Run (see alloc.go). A simulation uses one core; sweeps use the others by
// running simulations concurrently.
//
// The engine is port-indexed and allocation-free in steady state: routing
// algorithms answer with output-port indices straight from the precomputed
// route.Tables port table, switch allocation runs on one set of scratch
// buffers reused every cycle and walks per-router occupancy bitmasks and
// the packed head cache in each 16-byte queue record (queue.state), so empty
// queues cost nothing and ready ones no packet access, credit returns travel
// as flat counter indices through one FIFO ring, and an active-router worklist
// limits allocation to routers that actually hold flits. A flit's bytes are
// read once and written once per hop: every input queue of a router, network
// and injection alike, is a linked list through one packet pool (router.pkts)
// that grows to the flits the router actually buffers -- buffer depth is a
// credit count, not memory -- reached only through pushTail, headPkt and
// dropHead, and a hop copies a granted flit from its source slot straight
// into the downstream tail slot with a ReadyAt stamp encoding staging
// serialisation plus channel and pipeline delays; a per-output departure
// stamp (router.outBusy) does the staging, so there is no link-traversal
// phase. TestStepZeroAlloc pins the zero-allocation property,
// TestGoldenResults bit-identical fixed-seed results, TestRingConservation
// the credit/occupancy/pool ledger and the staging law.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"slimfly/internal/metrics"
	"slimfly/internal/obs"
	"slimfly/internal/route"
	"slimfly/internal/stats"
	"slimfly/internal/topo"
	"slimfly/internal/traffic"
)

// Runtime telemetry (internal/obs): per-run phase timers and a run
// counter, updated once per Run -- never inside step, so the engine's
// zero-allocation steady-state contract is untouched.
var (
	obsRuns        = obs.NewCounter("sim.runs")
	obsWarmupSpan  = obs.NewTimer("sim.phase.warmup")
	obsMeasureSpan = obs.NewTimer("sim.phase.measure")
	obsDrainSpan   = obs.NewTimer("sim.phase.drain")
	obsQueueSlots  = obs.NewGauge("sim.queue_slots")      // pool slots after the last run: each router's peak of buffered flits, summed
	obsPortTable   = obs.NewGauge("sim.port_table_bytes") // the last run's byte-wide port table (n*n), 0 when it asked the backend per decision
)

// Config parameterises one simulation run.
type Config struct {
	Topo topo.Topology
	// Router is the minimal-routing backend for Topo.Graph() -- BFS tables
	// (route.Build) or an algebraic computed backend (route.Select). When
	// the backend exposes the flat source-major port table (route.FlatPorter)
	// and every port index fits a byte, the engine serves every PortToward
	// from one load of its own byte-wide copy; otherwise it asks the backend
	// per decision.
	Router  route.Router
	Algo    Algo
	Pattern traffic.Pattern
	Load    float64 // offered load per endpoint in flits/cycle

	NumVCs       int // virtual channels per port (paper: 3)
	BufPerPort   int // total flit buffering per port (paper default: 64)
	RouterDelay  int // per-hop pipeline delay before arbitration (VA + credit)
	ChannelDelay int // link traversal cycles
	CreditDelay  int // credit return cycles
	Speedup      int // crossbar grants per output per cycle

	Warmup  int // warm-up cycles before measurement (steady state)
	Measure int // measured cycles
	Drain   int // extra cycles to let measured packets drain

	// Metrics selects streaming collectors by comma-separated registry
	// name (internal/metrics, e.g. "latency,channels"); empty attaches
	// none. Collectors observe the run with zero steady-state allocation
	// and never change Result; read their output with MetricsSummary (or
	// RunSummary). A run has one set of instances and calls their hooks in
	// one order.
	Metrics string

	Seed uint64
}

// withDefaults fills unset fields with the paper's simulation parameters.
func (c Config) withDefaults() Config {
	if c.NumVCs == 0 && c.Algo != nil && c.Router != nil {
		// Hop-indexed VC assignment needs one VC per hop of the longest
		// path the algorithm can produce (Section IV-D); fewer VCs would
		// share the last one and re-introduce cyclic dependencies.
		c.NumVCs = c.Algo.NeededVCs(c.Router.MaxDistance())
	}
	if c.NumVCs == 0 {
		c.NumVCs = 3
	}
	if c.BufPerPort == 0 {
		c.BufPerPort = 64
	}
	if c.RouterDelay == 0 {
		c.RouterDelay = 2
	}
	if c.ChannelDelay == 0 {
		c.ChannelDelay = 1
	}
	if c.CreditDelay == 0 {
		c.CreditDelay = 2
	}
	if c.Speedup == 0 {
		c.Speedup = 2
	}
	if c.Warmup == 0 {
		c.Warmup = 2000
	}
	if c.Measure == 0 {
		c.Measure = 5000
	}
	if c.Drain == 0 {
		c.Drain = 20000
	}
	return c
}

// Result aggregates one run's measurements.
type Result struct {
	AvgLatency  float64 // cycles, measured packets
	MaxLatency  int64
	AvgHops     float64
	Injected    int64   // measured-window injections
	Delivered   int64   // measured packets delivered
	Accepted    float64 // delivered flits / cycle / active endpoint
	OfferedLoad float64
	Saturated   bool // not all measured packets drained
	ActiveEnds  int
	TotalCycles int64
}

type router struct {
	nbr     []int32 // sorted neighbour router ids; network port i <-> nbr[i]
	revPort []int32 // our port index on nbr[i]'s side
	eps     []int32 // endpoint ids attached here
	// Input queues, indexed q: the deg*numVCs network queues first
	// (q = port*numVCs + vc, one per credits entry and never longer than the
	// credits allow), then one unbounded injection queue per attached
	// endpoint. All are linked lists through the one pool pkts, whose unqueued
	// slots form a LIFO free list from free (-1: none). pushTail, headPkt and
	// dropHead are the only way into a queue, to its head and past it.
	//
	// Each queue record carries its head cache, maintained by setHead whenever
	// the head changes: queues[q].state is packHead of the head packet's
	// ReadyAt, its routing decision (the ejection port, or -- static
	// algorithms only -- the TargetPort answer) and its hop count, which
	// selects the next-hop VC. The allocator reads these compact records
	// instead of a scattered packet cacheline per non-empty queue per cycle,
	// and a push from upstream touches one line for links and head word both.
	pkts    []Packet
	free    int32
	queues  []queue
	occ     []uint64 // occupancy bitmask over the queues: bit q set iff queue q is non-empty
	credits []int16  // [outPort*numVCs + vc] for network outputs: this router's window of Sim.credits
	// upCred[q] is the Sim.credits index of the upstream counter that network
	// input queue q refills when a flit leaves it.
	upCred []int32
	// outBusy[outPort] is the first cycle at which the output can start a new
	// departure onto its link. The packets themselves are delivered downstream
	// at grant time with a ReadyAt stamp that encodes their serialised
	// departure, so staging is a stamp, not a queue: at cycle c the output
	// holds max(0, outBusy[outPort]-c) granted flits that have not yet left.
	outBusy []int32
	rr      []int32 // round-robin arbitration pointer per output (network + eject)
	flits   int     // buffered flits in input queues
}

// packHead builds a queue's state word: ReadyAt in bits 0-31, the output port in
// bits 32-47, the hop count in bits 48-54. New rejects configurations whose
// ports or cycle stamps would not fit.
func packHead(readyAt, port int32, hops int8) uint64 {
	return uint64(hops)<<48 | uint64(port)<<32 | uint64(uint32(readyAt))
}

// unpackHead is the inverse of packHead.
func unpackHead(st uint64) (readyAt, port int32, hops int8) {
	return int32(uint32(st)), int32(uint16(st >> 32)), int8(st >> 48)
}

// markOcc records that input queue q became non-empty.
func (rt *router) markOcc(q int) { rt.occ[q>>6] |= 1 << (uint(q) & 63) }

// clearOcc records that input queue q drained empty.
func (rt *router) clearOcc(q int) { rt.occ[q>>6] &^= 1 << (uint(q) & 63) }

// noPort is the nextPort entry for "no port" (the backend's -1).
const noPort = math.MaxUint8

// creditRet is one credit in flight: Sim.credits[idx] gains it at cycle due.
type creditRet struct{ due, idx int32 }

// Sim is a deterministic simulator instance. All of its state is read and
// mutated on the goroutine that calls Run (or step).
type Sim struct {
	cfg       Config
	rng       *stats.RNG
	routers   []router
	epRouter  []int32 // endpoint -> router
	epIdx     []int32 // endpoint -> index within its router's endpoint list
	bufPerVC  int
	spreadVCs bool // free VC selection (acyclic routing only)
	// staticPorts: the algorithm's TargetPort is a pure function of
	// (packet, router) -- no RNG, no queue state -- so the engine may
	// evaluate it once per revealed queue head (setHead) and serve the
	// allocator scan from the per-router head cache.
	staticPorts bool

	// allocRNG holds one random stream per router for adaptive
	// (non-static) algorithms' allocation-time draws, derived from the
	// seed by repeated RNG jumps. Keying the streams by router id makes
	// every draw depend on the router's own history only, not on which
	// routers allocated before it; the goldens were recorded with these
	// streams. nil for static-port algorithms (they never draw during
	// allocation).
	allocRNG []stats.RNG

	// alloc is the switch-allocation scratch every allocRouter call reuses.
	alloc allocScratch

	// Routing backend plus its hot-path cache: when the backend exposes
	// the flat source-major port table (route.FlatPorter) and no router has
	// more than 254 network ports, nextPort is the engine's own byte-wide copy
	// -- the port at router u toward destination router d is
	// nextPort[u*nRouters+d], noPort (255) for the backend's -1 -- so the one
	// scattered load per revealed head has a quarter of the int32 table's lines
	// to miss on. Otherwise nextPort is nil and PortToward asks rtr instead.
	rtr      route.Router
	nextPort []uint8
	nRouters int

	// Active-router worklist: routers holding buffered flits. Rebuilt
	// incrementally (arrivals/injections add, emptied routers drop out at the
	// end of the cycle) and sorted ascending each cycle so the
	// allocation order -- and hence RNG consumption -- matches a full
	// ascending scan exactly.
	active   []int32
	inActive []bool

	// credits holds every router's credit counters back to back; each
	// router's credits field is its window.
	credits []int16
	// Credits in flight: a FIFO ring, a power of two long, of credLen events
	// from credHead on. Every credit takes CreditDelay cycles, so events enter
	// in due order; like a packet pool, the ring grows (growCredRing) to the
	// most credits ever in flight at once. (Flit arrivals need no queue:
	// ReadyAt gates the downstream head by the channel + pipeline delay.)
	credRing          []creditRet
	credHead, credLen int
	cycle             int64

	// Measurement.
	latSum     int64
	hopSum     int64
	delivered  int64 // measured packets delivered (including drain)
	deliveredW int64 // measured packets delivered within the window
	windowEnd  int64
	injected   int64
	maxLat     int64
	inFlight   int64 // measured packets not yet delivered

	// Streaming metrics pipeline (internal/metrics): the run's collector
	// set, nil when no collectors are configured. Every hook is called on
	// the stepping goroutine.
	col    *metrics.Set
	colHop bool // any collector observes hops (hop's Hop gate)
	colPkt bool // any collector observes per-packet events (trace fast-path gate)
}

// CheckCycleRange refuses a run whose cycles could pass the int32 range of
// packet cycle stamps (Birth, ReadyAt) and credit due cycles rather than
// let them wrap mid-run: warmup+measure+drain plus the per-hop delays, zero
// fields taking their defaults, must leave a margin for the staging added
// on top of the final cycle. New calls it, and so does the scenario layer's
// validation, so a spec that validates is a run New accepts.
func CheckCycleRange(cfg Config) error {
	cfg = cfg.withDefaults()
	if total := int64(cfg.Warmup) + int64(cfg.Measure) + int64(cfg.Drain) +
		int64(cfg.RouterDelay) + int64(cfg.ChannelDelay) + int64(cfg.CreditDelay); total > (1<<31)-(1<<20) {
		return fmt.Errorf("sim: warmup+measure+drain plus the per-hop delays = %d cycles exceeds the int32 cycle-stamp range", total)
	}
	return nil
}

// CheckBuffers refuses a port buffer the engine cannot split among the
// VCs: every VC needs at least one flit, and a VC's depth is an int16
// credit count. Zero fields take their defaults, as in New. New calls it,
// and so does the scenario layer's validation when num_vcs is explicit,
// so such a spec validates only if New accepts its buffers.
func CheckBuffers(cfg Config) error {
	cfg = cfg.withDefaults()
	if cfg.BufPerPort < cfg.NumVCs {
		return fmt.Errorf("sim: need at least 1 flit of buffering per VC: %d flits across %d VCs", cfg.BufPerPort, cfg.NumVCs)
	}
	// Depth is only a credit count, but the counters are int16: reject
	// depths that would wrap them.
	if d := cfg.BufPerPort / cfg.NumVCs; d > math.MaxInt16 {
		return fmt.Errorf("sim: %d flits of buffering per VC exceeds the int16 credit counters' limit of %d", d, math.MaxInt16)
	}
	return nil
}

// New builds a simulator from cfg, validating the configuration.
func New(cfg Config) (*Sim, error) {
	cfg = cfg.withDefaults()
	if cfg.Topo == nil || cfg.Router == nil || cfg.Algo == nil || cfg.Pattern == nil {
		return nil, fmt.Errorf("sim: Topo, Router, Algo and Pattern are required")
	}
	if !(cfg.Load >= 0 && cfg.Load <= 1) { // written so that NaN fails too
		return nil, fmt.Errorf("sim: load %v out of [0,1]", cfg.Load)
	}
	// Zero meant "default" above; a negative count or delay means nothing (it
	// would size a slice, return credits early or stamp ReadyAt in the past).
	for _, f := range []struct {
		name string
		v    int
	}{
		{"NumVCs", cfg.NumVCs}, {"BufPerPort", cfg.BufPerPort}, {"RouterDelay", cfg.RouterDelay},
		{"ChannelDelay", cfg.ChannelDelay}, {"CreditDelay", cfg.CreditDelay}, {"Speedup", cfg.Speedup},
		{"Warmup", cfg.Warmup}, {"Measure", cfg.Measure}, {"Drain", cfg.Drain},
	} {
		if f.v < 0 {
			return nil, fmt.Errorf("sim: negative %s %d", f.name, f.v)
		}
	}
	// The next-hop VC is an int8, read from the head cache's 7-bit hop field
	// and clamped to NumVCs-1: VC 128 would wrap into another port's credits.
	if cfg.NumVCs > math.MaxInt8 {
		return nil, fmt.Errorf("sim: NumVCs %d exceeds the int8 VC fields' limit of %d", cfg.NumVCs, math.MaxInt8)
	}
	if err := CheckBuffers(cfg); err != nil {
		return nil, err
	}
	if err := CheckCycleRange(cfg); err != nil {
		return nil, err
	}
	t := cfg.Topo
	g := t.Graph()
	if rn := cfg.Router.Graph().N(); rn != g.N() {
		return nil, fmt.Errorf("sim: routing backend built for %d routers, topology has %d", rn, g.N())
	}
	s := &Sim{
		cfg:      cfg,
		rng:      stats.NewRNG(cfg.Seed),
		routers:  make([]router, g.N()),
		epRouter: make([]int32, t.Endpoints()),
		epIdx:    make([]int32, t.Endpoints()),
		bufPerVC: cfg.BufPerPort / cfg.NumVCs,
		rtr:      cfg.Router,
		nRouters: g.N(),
		active:   make([]int32, 0, g.N()),
		inActive: make([]bool, g.N()),
	}
	if sp, ok := cfg.Algo.(interface{ SpreadVCs() bool }); ok && sp.SpreadVCs() {
		s.spreadVCs = true
	}
	if st, ok := cfg.Algo.(interface{ StaticPorts() bool }); ok && st.StaticPorts() {
		s.staticPorts = true
	}
	for e := 0; e < t.Endpoints(); e++ {
		s.epRouter[e] = int32(t.EndpointRouter(e))
	}
	maxQ, maxOutputs, maxDeg := 0, 0, 0
	credBase := make([]int32, g.N()+1) // router r's counters are credits[credBase[r]:credBase[r+1]]
	for r := 0; r < g.N(); r++ {
		rt := &s.routers[r]
		rt.nbr = g.Neighbors(r) // sorted
		rt.eps = make([]int32, 0, 4)
		for _, e := range t.RouterEndpoints(r) {
			s.epIdx[e] = int32(len(rt.eps))
			rt.eps = append(rt.eps, int32(e))
		}
		deg := len(rt.nbr)
		ports := deg + len(rt.eps)
		if ports > math.MaxUint16 {
			return nil, fmt.Errorf("sim: router %d has %d ports; the head cache holds port indices below %d", r, ports, math.MaxUint16+1)
		}
		netQ := deg * cfg.NumVCs
		nq := netQ + len(rt.eps)
		// A few slots per port to start from: below saturation a router holds
		// far fewer flits than its credits allow; pushTail grows the others.
		rt.pkts = make([]Packet, 0, 4*ports)
		rt.free = -1
		rt.queues = make([]queue, nq)
		rt.occ = make([]uint64, (nq+63)/64)
		rt.upCred = make([]int32, netQ)
		rt.outBusy = make([]int32, deg)
		rt.rr = make([]int32, ports)
		rt.revPort = make([]int32, deg)
		maxQ = max(maxQ, nq)
		maxOutputs = max(maxOutputs, ports)
		maxDeg = max(maxDeg, deg)
		credBase[r+1] = credBase[r] + int32(netQ)
	}
	s.credits = make([]int16, credBase[g.N()])
	for i := range s.credits {
		s.credits[i] = int16(s.bufPerVC)
	}
	for r := range s.routers {
		s.routers[r].credits = s.credits[credBase[r]:credBase[r+1]:credBase[r+1]]
	}
	// Flat-table fast path: the backend's source-major port table, copied once
	// and narrowed to bytes (-1 wraps to noPort); no interface call in the hot loop.
	if fp, ok := cfg.Router.(route.FlatPorter); ok && maxDeg < noPort {
		flat, _ := fp.NextPortFlat()
		s.nextPort = make([]uint8, len(flat))
		for i, p := range flat {
			s.nextPort[i] = uint8(p)
		}
	}
	// Reverse port indices and upstream credit counters: the port table
	// answers neighbour->port directly (adjacent pairs route via their link).
	for r := range s.routers {
		rt := &s.routers[r]
		for i, nb := range rt.nbr {
			rt.revPort[i] = s.PortToward(nb, int32(r))
			up := credBase[nb] + rt.revPort[i]*int32(cfg.NumVCs)
			for v := range cfg.NumVCs {
				rt.upCred[i*cfg.NumVCs+v] = up + int32(v)
			}
		}
	}
	// One credit per network channel in flight to start from; growCredRing
	// doubles it as needed.
	s.credRing = make([]creditRet, 1<<bits.Len(uint(len(s.credits)/cfg.NumVCs)))
	if !s.staticPorts {
		// Per-router allocation streams: stream r is the seed state jumped
		// r+1 times (the un-jumped state is the injection stream; no
		// consumer ever exhausts a 2^128-step segment, so the streams never
		// overlap it or each other).
		s.allocRNG = make([]stats.RNG, g.N())
		jr := stats.NewRNG(cfg.Seed)
		for r := 0; r < g.N(); r++ {
			jr.Jump()
			s.allocRNG[r] = *jr
		}
	}
	s.alloc = allocScratch{
		scrQ:    make([]int32, maxQ),
		scrOut:  make([]int32, maxQ),
		scrBkt:  make([]int32, maxQ),
		scrCnt:  make([]int32, maxOutputs),
		scrOff:  make([]int32, maxOutputs),
		scrMask: make([]uint64, (maxOutputs+63)/64),
	}
	if cfg.Metrics != "" {
		set, err := metrics.NewSet(cfg.Metrics)
		if err != nil {
			return nil, err
		}
		s.initMetrics(set)
	}
	return s, nil
}

// initMetrics attaches a collector set to the simulator and sizes it for
// the simulated system.
func (s *Sim) initMetrics(set *metrics.Set) {
	meta := metrics.Meta{
		Routers:   s.nRouters,
		Endpoints: len(s.epRouter),
		Degrees:   make([]int32, s.nRouters),
		NumVCs:    s.cfg.NumVCs,
		Warmup:    int64(s.cfg.Warmup),
		Measure:   int64(s.cfg.Measure),
	}
	for r := range s.routers {
		meta.Degrees[r] = int32(len(s.routers[r].nbr))
	}
	set.Attach(meta)
	s.col = set
	s.colHop = set.ObservesHops()
	s.colPkt = set.ObservesPackets()
}

// pktID packs a packet's engine-invariant identity for the per-packet
// trace hooks: an endpoint injects at most one packet per cycle, so
// (src, birth) is unique, and both fields are part of the packet itself
// -- nothing threads a separate id through the pipeline.
func pktID(src, birth int32) uint64 {
	return uint64(uint32(src))<<32 | uint64(uint32(birth))
}

// inWindow reports whether the current cycle is inside the measurement
// window (the scope of Hop and Cycle observations).
func (s *Sim) inWindow() bool {
	return s.cycle >= int64(s.cfg.Warmup) && s.cycle < s.windowEnd
}

// MetricsSummary returns the collectors' structured summary, nil when the
// simulator has no collectors attached.
func (s *Sim) MetricsSummary() *metrics.Summary {
	if s.col == nil {
		return nil
	}
	sum := s.col.Summary()
	return &sum
}

// PortToward returns router r's output-port index toward destination
// router d: one load from the engine's byte-wide port table when it has
// one, else a lookup on the backend. For a neighbour d it is the port of
// the direct link. Returns -1 when d == r or d is unreachable.
func (s *Sim) PortToward(r, d int32) int32 {
	if s.nextPort == nil {
		return s.rtr.NextPort(int(r), int(d))
	}
	if p := s.nextPort[int(r)*s.nRouters+int(d)]; p != noPort {
		return int32(p)
	}
	return -1
}

// PortNeighbor returns the router behind r's output port.
func (s *Sim) PortNeighbor(r, port int32) int32 { return s.routers[r].nbr[port] }

// QueueEstimate returns the congestion estimate for router r's network
// output port: occupied downstream buffer slots plus staged flits. UGAL
// uses this as its "output queue length" (Section IV-C).
func (s *Sim) QueueEstimate(r int32, port int) int {
	rt := &s.routers[r]
	occ := max(int(rt.outBusy[port])-int(s.cycle), 0)
	base := port * s.cfg.NumVCs
	for v := 0; v < s.cfg.NumVCs; v++ {
		occ += s.bufPerVC - int(rt.credits[base+v])
	}
	return occ
}

// Router exposes the routing backend to routing algorithms.
func (s *Sim) Router() route.Router { return s.cfg.Router }

// PortRNG returns router r's allocation-phase random stream, the only RNG
// an adaptive algorithm may draw from inside TargetPort. The streams are
// keyed by router id and derived from the seed by RNG jumps, so draws made
// while deciding router r depend only on r's own history -- never on the
// order routers are visited.
// Only available to adaptive algorithms (StaticPorts() == false); static
// TargetPort implementations are pure by contract and must not draw at all.
func (s *Sim) PortRNG(r int32) *stats.RNG { return &s.allocRNG[r] }

// touch adds router r to the active worklist if it is not already on it.
func (s *Sim) touch(r int32) {
	if !s.inActive[r] {
		s.inActive[r] = true
		s.active = append(s.active, r) //sf:allow(append: capacity nRouters at construction; inActive dedups, so len never exceeds it)
	}
}

// headPkt returns the head packet of router rt's non-empty queue q.
// Routing algorithms may mutate it in place (e.g. Valiant phase switches).
func (rt *router) headPkt(q int) *Packet { return &rt.pkts[rt.queues[q].head] }

// publish makes the packet just written into the slot pushTail returned for
// router r's queue q visible to the allocator.
func (s *Sim) publish(rt *router, r int32, q int, pkt *Packet) {
	if rt.occ[q>>6]>>(uint(q)&63)&1 == 0 {
		rt.markOcc(q)
		s.setHead(rt, r, q, pkt)
	}
	rt.flits++
	s.touch(r)
}

// dropHead removes the head packet of router r's queue q, frees its pool
// slot -- returning a credit upstream for network inputs; injection queues
// are source queues without credits -- and refreshes the occupancy bit or
// the head cache for whatever the removal exposed.
func (s *Sim) dropHead(rt *router, r int32, q int) {
	qu := &rt.queues[q]
	freed := qu.head
	qu.head = rt.pkts[freed].next
	rt.pkts[freed].next = rt.free
	rt.free = freed
	if q < len(rt.credits) {
		if s.credLen == len(s.credRing) {
			s.growCredRing()
		}
		s.credRing[(s.credHead+s.credLen)&(len(s.credRing)-1)] = creditRet{due: int32(s.cycle) + int32(s.cfg.CreditDelay), idx: rt.upCred[q]}
		s.credLen++
	}
	rt.flits--
	if freed == qu.tail {
		rt.clearOcc(q)
	} else {
		s.setHead(rt, r, q, &rt.pkts[qu.head])
	}
}

// setHead refreshes router r's head cache for queue qi, whose head packet
// pkt was just revealed (written into an empty queue, or exposed by dropHead).
// For static-port algorithms the routing decision is made here, once per
// reveal, instead of once per cycle in the allocator scan; the call order
// is unobservable because static TargetPort implementations consume no RNG
// and their only packet mutation (the Valiant phase flip) is idempotent.
func (s *Sim) setHead(rt *router, r int32, qi int, pkt *Packet) {
	var out int32
	if pkt.DstRouter == r {
		out = int32(len(rt.nbr) + int(s.epIdx[pkt.Dst]))
	} else if s.staticPorts {
		out = s.cfg.Algo.TargetPort(s, pkt, r)
		if out < 0 || int(out) >= len(rt.nbr) {
			s.badTargetPort(r, pkt, out, len(rt.nbr))
		}
	}
	rt.queues[qi].state = packHead(pkt.ReadyAt, out, pkt.Hops)
}

// Run executes the configured simulation and returns the measurements.
func (s *Sim) Run() Result {
	cfg := s.cfg
	active := 0
	for e := 0; e < cfg.Topo.Endpoints(); e++ {
		if cfg.Pattern.Dest(e, s.rng) >= 0 {
			active++
		}
	}
	obsRuns.Inc()
	total := int64(cfg.Warmup + cfg.Measure)
	s.windowEnd = total
	// The warmup/measure split below only carves the injection loop into
	// two telemetry spans; the stepped sequence is identical.
	warm := int64(cfg.Warmup)
	sp := obsWarmupSpan.Start()
	for s.cycle = 0; s.cycle < warm; s.cycle++ {
		s.step(true)
	}
	sp.End()
	sp = obsMeasureSpan.Start()
	for s.cycle = warm; s.cycle < total; s.cycle++ {
		s.step(true)
	}
	sp.End()
	// Drain: stop injecting, let measured packets finish (bounded).
	sp = obsDrainSpan.Start()
	drainEnd := total + int64(cfg.Drain)
	for s.cycle = total; s.cycle < drainEnd && s.inFlight > 0; s.cycle++ {
		s.step(false)
	}
	sp.End()
	slots := 0
	for r := range s.routers {
		slots += len(s.routers[r].pkts)
	}
	obsQueueSlots.Set(int64(slots))
	obsPortTable.Set(int64(len(s.nextPort)))
	res := Result{
		Injected:    s.injected,
		Delivered:   s.delivered,
		MaxLatency:  s.maxLat,
		OfferedLoad: cfg.Load,
		ActiveEnds:  active,
		TotalCycles: s.cycle,
		Saturated:   s.inFlight > 0,
	}
	if s.delivered > 0 {
		res.AvgLatency = float64(s.latSum) / float64(s.delivered)
		res.AvgHops = float64(s.hopSum) / float64(s.delivered)
	}
	if active > 0 && cfg.Measure > 0 {
		// Throughput counts only deliveries inside the measurement window;
		// backlog drained afterwards is latency-relevant but not sustained
		// bandwidth.
		res.Accepted = float64(s.deliveredW) / float64(cfg.Measure) / float64(active)
	}
	return res
}

// Close does nothing; it stays only because cmd/sfbench calls it.
func (s *Sim) Close() {}

// step advances the simulation by one cycle.
//
// step and everything it statically calls is the engine's zero-allocation
// steady state: cmd/sfvet's hotalloc pass proves the absence of
// allocating constructs at compile time (the //sf:allow annotations
// document the reviewed amortised exceptions), and TestStepZeroAlloc
// re-confirms it at runtime on the real workload.
//
//sf:hotpath
func (s *Sim) step(inject bool) {
	s.applyCredits()
	if inject {
		s.injectPhase()
	}

	// The worklist accumulates routers in delivery/injection order; sort
	// it so routers are visited and grant in ascending id order, the order
	// the goldens were recorded in.
	slices.Sort(s.active)

	// Switch allocation + VC allocation per active router, each grant
	// applied as it is chosen. Routers a hop touches join the worklist behind
	// the range bound and are not visited this cycle (their new heads are
	// not ready before the next one anyway).
	for _, r := range s.active {
		if rt := &s.routers[r]; rt.flits > 0 {
			s.allocRouter(r, rt)
		}
	}

	s.observeCycle()
	s.pruneActive()
}

// observeCycle ticks the collectors' per-cycle hook for measurement-window
// cycles.
func (s *Sim) observeCycle() {
	if s.col != nil && s.inWindow() {
		s.col.Cycle(s.cycle)
	}
}

// applyCredits performs step 1 of a cycle: credit returns due by this
// cycle, popped off the head of the ring. (No touch needed: a credit only
// matters to a router whose flit is blocked on it, and a router with
// buffered flits is already on the worklist.)
func (s *Sim) applyCredits() {
	cycle, mask := int32(s.cycle), len(s.credRing)-1
	for ; s.credLen > 0 && s.credRing[s.credHead].due <= cycle; s.credLen-- {
		s.credits[s.credRing[s.credHead].idx]++
		s.credHead = (s.credHead + 1) & mask
	}
}

// growCredRing doubles the credit ring, unrolling its events (it is full) to
// the front of the new one in due order. It runs a logarithmic number of
// times per simulation, not per cycle -- //sf:coldpath exempts the
// reallocation from the hot-path allocation rule.
//
//sf:coldpath
func (s *Sim) growCredRing() {
	ring := make([]creditRet, 2*len(s.credRing))
	n := copy(ring, s.credRing[s.credHead:])
	copy(ring[n:], s.credRing[:s.credHead])
	s.credRing, s.credHead = ring, 0
}

// injectPhase performs step 2 of a cycle: Bernoulli injection per endpoint,
// in endpoint order on the main RNG stream.
func (s *Sim) injectPhase() {
	cfg := &s.cfg
	for e := range s.epRouter {
		if !s.rng.Bernoulli(cfg.Load) {
			continue
		}
		dst := cfg.Pattern.Dest(e, s.rng)
		if dst < 0 {
			continue
		}
		// Construct the packet in place in its source-queue slot: the
		// slot pointer (into the heap-resident pool) is what the OnInject
		// interface call needs, so nothing escapes and nothing is copied.
		r := s.epRouter[e]
		rt := &s.routers[r]
		qi := len(rt.credits) + int(s.epIdx[e])
		pkt := rt.pushTail(qi)
		*pkt = Packet{
			Src:       int32(e),
			Dst:       int32(dst),
			DstRouter: s.epRouter[dst],
			Interm:    -1,
			Birth:     int32(s.cycle),
			ReadyAt:   int32(s.cycle + 1),
			Measured:  s.cycle >= int64(cfg.Warmup),
		}
		cfg.Algo.OnInject(s, pkt)
		s.publish(rt, r, qi, pkt)
		if pkt.Measured {
			s.injected++
			s.inFlight++
			if s.col != nil {
				s.col.Inject(int32(e), s.cycle)
				if s.colPkt {
					// The injection-time path decision: OnInject just ran, so
					// a committed indirect route shows as Interm >= 0 with
					// Phase 0 (VAL's degenerate self-route and UGAL's minimal
					// pick both leave Phase 1 or Interm -1).
					tag := metrics.TagMinimal
					if pkt.Interm >= 0 && pkt.Phase == 0 {
						tag = metrics.TagValiant
					}
					s.col.PacketInject(pktID(pkt.Src, pkt.Birth), pkt.Dst, r, tag, s.cycle)
				}
			}
		}
	}
}

// pruneActive drops routers that hold no flits; the rest stay listed for
// the next cycle.
func (s *Sim) pruneActive() {
	kept := s.active[:0]
	for _, r := range s.active {
		if s.routers[r].flits > 0 {
			kept = append(kept, r) //sf:allow(append: kept reuses s.active's backing array and only ever shrinks it)
		} else {
			s.inActive[r] = false
		}
	}
	s.active = kept
}

// badTargetPort reports a routing-contract violation: the algorithm
// answered with a port that is not a network output of router r. The
// panic names everything needed to reproduce the misroute. It is the
// hot path's one formatting call, taken only to die -- //sf:coldpath
// cuts hotalloc propagation here.
//
//sf:coldpath
func (s *Sim) badTargetPort(r int32, p *Packet, port int32, deg int) {
	panic(fmt.Sprintf(
		"sim: algorithm %s returned invalid output port %d at router %d (degree %d): packet src=%d dst=%d dstRouter=%d interm=%d phase=%d hops=%d",
		s.cfg.Algo.Name(), port, r, deg, p.Src, p.Dst, p.DstRouter, p.Interm, p.Phase, p.Hops))
}

// deliver completes a packet's journey at router r (its ejection router).
func (s *Sim) deliver(r int32, p *Packet) {
	// Sustained throughput counts every delivery inside the measurement
	// window (warmup-born packets included): at saturation the warmup
	// backlog is part of the steady state, and excluding it would make
	// accepted load collapse with offered load instead of plateauing.
	if s.cycle >= int64(s.cfg.Warmup) && s.cycle < s.windowEnd {
		s.deliveredW++
	}
	if !p.Measured {
		return
	}
	lat := s.cycle - int64(p.Birth)
	if s.col != nil {
		s.col.Deliver(p.Src, int32(p.Hops), lat, s.cycle)
		if s.colPkt {
			s.col.PacketDeliver(pktID(p.Src, p.Birth), r, int32(p.Hops), lat, s.cycle)
		}
	}
	s.latSum += lat
	s.hopSum += int64(p.Hops)
	if lat > s.maxLat {
		s.maxLat = lat
	}
	s.delivered++
	s.inFlight--
}
