package sim

import (
	"slimfly/internal/route"
	"slimfly/internal/topo/fattree"
)

// Algo is a routing algorithm. OnInject runs once per packet at its source
// router (where UGAL makes its path decision); TargetPort returns the
// output-port index (into the router's sorted neighbour list) a packet
// currently buffered at router r should take next. It is never asked about
// ejection: the engine delivers locally when r is the destination router.
//
// The port-indexed contract exists for the hot path: the engine consults
// TargetPort once per buffered head flit per cycle, and a port index feeds
// the switch allocator directly. Algorithms answer from the precomputed
// routing backend port tables (via Sim.PortToward), so no routing decision
// ever searches an adjacency list. Returning a port outside [0, degree)
// is a contract violation and makes the engine panic with a diagnostic
// naming the algorithm and packet (see Sim.badTargetPort).
//
// Paths declares the set of paths the algorithm routes on, and the engine
// derives the rest from it: the default VC count is the set's longest path
// on the network (one VC per hop, Section IV-D). An UpDown algorithm is
// asked for a port every cycle and may spread flits over all VCs; any
// other set fixes the path at injection, so TargetPort must be a pure
// table lookup that the engine evaluates once per queue head.
type Algo interface {
	Name() string
	OnInject(s *Sim, p *Packet)
	TargetPort(s *Sim, p *Packet, r int32) int32
	Paths() route.PathSet
}

// MIN is minimal static routing (Section IV-A): shortest path by table.
type MIN struct{}

// Name implements Algo.
func (MIN) Name() string { return "MIN" }

// OnInject implements Algo.
func (MIN) OnInject(*Sim, *Packet) {}

// Paths implements Algo.
func (MIN) Paths() route.PathSet { return route.Minimal }

// TargetPort implements Algo.
func (MIN) TargetPort(s *Sim, p *Packet, r int32) int32 {
	return s.PortToward(r, p.DstRouter)
}

// valTargetPort routes via the packet's intermediate router, switching to
// phase 1 on arrival there. Shared by VAL, VAL3 and the UGAL variants,
// whose packets committed to the minimal path start in phase 1.
func valTargetPort(s *Sim, p *Packet, r int32) int32 {
	if p.Phase == 0 {
		if r == p.Interm {
			p.Phase = 1
		} else {
			return s.PortToward(r, p.Interm)
		}
	}
	return s.PortToward(r, p.DstRouter)
}

// pickIntermediate draws a random router different from both src and dst.
func pickIntermediate(s *Sim, src, dst int32) int32 {
	n := int32(s.cfg.Topo.Routers())
	for {
		r := int32(s.rng.Intn(int(n)))
		if r != src && r != dst {
			return r
		}
	}
}

// VAL is Valiant random routing (Section IV-B): minimal to a random
// intermediate router, then minimal to the destination; paths are 2-4 hops
// on Slim Fly.
type VAL struct{}

// Name implements Algo.
func (VAL) Name() string { return "VAL" }

// OnInject implements Algo.
func (VAL) OnInject(s *Sim, p *Packet) {
	src := s.epRouter[p.Src]
	if src == p.DstRouter {
		p.Interm = src // degenerate: stay minimal (self-router traffic)
		p.Phase = 1
		return
	}
	p.Interm = pickIntermediate(s, src, p.DstRouter)
}

// Paths implements Algo. The phase flip at the intermediate is
// idempotent, so TargetPort stays a pure lookup.
func (VAL) Paths() route.PathSet { return route.Valiant }

// TargetPort implements Algo.
func (VAL) TargetPort(s *Sim, p *Packet, r int32) int32 { return valTargetPort(s, p, r) }

// VAL3 is the constrained Valiant variant of Section IV-B: the random
// intermediate is redrawn until the total path is at most 3 hops. The
// paper notes this constraint raises average latency because it limits
// path diversity; BenchmarkAblationVAL3Hop measures that claim. Its path
// set is VAL's: when no short path is drawn it keeps the shortest seen,
// which may be any Valiant path.
type VAL3 struct{}

// Name implements Algo.
func (VAL3) Name() string { return "VAL-3hop" }

// OnInject implements Algo.
func (VAL3) OnInject(s *Sim, p *Packet) {
	src := s.epRouter[p.Src]
	if src == p.DstRouter {
		p.Interm = src
		p.Phase = 1
		return
	}
	tb := s.Router()
	// Bounded redraws; fall back to the best seen if none fits.
	best := int32(-1)
	bestLen := 1 << 30
	for i := 0; i < 32; i++ {
		r := pickIntermediate(s, src, p.DstRouter)
		l := tb.ValiantLen(int(src), int(r), int(p.DstRouter))
		if l < bestLen {
			bestLen = l
			best = r
		}
		if l <= 3 {
			break
		}
	}
	p.Interm = best
}

// Paths implements Algo.
func (VAL3) Paths() route.PathSet { return route.Valiant }

// TargetPort implements Algo.
func (VAL3) TargetPort(s *Sim, p *Packet, r int32) int32 { return valTargetPort(s, p, r) }

// UGALL is UGAL-L (Section IV-C2): at injection it compares the minimal
// path against Candidates random Valiant paths, weighting each path's hop
// count by the local output queue length of its first hop, and commits to
// the winner.
type UGALL struct {
	Candidates int // number of random paths; the paper found 4 best
}

// Name implements Algo.
func (UGALL) Name() string { return "UGAL-L" }

// OnInject implements Algo.
func (u UGALL) OnInject(s *Sim, p *Packet) { ugalInject(s, p, u.Candidates, false) }

// Paths implements Algo: UGAL may commit to the minimal or any Valiant path.
func (UGALL) Paths() route.PathSet { return route.Union }

// TargetPort implements Algo.
func (UGALL) TargetPort(s *Sim, p *Packet, r int32) int32 { return valTargetPort(s, p, r) }

// UGALG is UGAL-G (Section IV-C1): like UGAL-L but with global knowledge,
// summing the queue estimates along the entire candidate path.
type UGALG struct {
	Candidates int
}

// Name implements Algo.
func (UGALG) Name() string { return "UGAL-G" }

// OnInject implements Algo.
func (u UGALG) OnInject(s *Sim, p *Packet) { ugalInject(s, p, u.Candidates, true) }

// Paths implements Algo (see UGALL).
func (UGALG) Paths() route.PathSet { return route.Union }

// TargetPort implements Algo.
func (UGALG) TargetPort(s *Sim, p *Packet, r int32) int32 { return valTargetPort(s, p, r) }

// ugalThreshold is the bias toward the minimal path: a non-minimal path is
// taken only when its cost undercuts the minimal cost by more than this
// margin. It damps detours caused by single in-flight flits (production
// UGAL implementations use the same bias; without it, the scheme detours on
// transient noise even at trivial loads).
const ugalThreshold = 3

// ugalInject is UGAL's decision at injection: the minimal path against
// cands random Valiant paths (4 if unset). The cheapest Valiant path is
// committed only when it undercuts the minimal cost by more than
// ugalThreshold; a minimal commitment leaves Interm -1 and Phase 1, which
// valTargetPort follows to the destination. global selects UGAL-G's cost
// over UGAL-L's.
func ugalInject(s *Sim, p *Packet, cands int, global bool) {
	if cands <= 0 {
		cands = 4
	}
	src := s.epRouter[p.Src]
	if src == p.DstRouter {
		p.Interm = -1
		return
	}
	minCost := ugalCost(s, src, p.DstRouter, p.DstRouter, global)
	bestCost := -1
	bestInterm := int32(-1)
	for i := 0; i < cands; i++ {
		interm := pickIntermediate(s, src, p.DstRouter)
		cost := ugalCost(s, src, interm, p.DstRouter, global)
		if bestCost < 0 || cost < bestCost {
			bestCost = cost
			bestInterm = interm
		}
	}
	if bestCost >= 0 && bestCost+ugalThreshold < minCost {
		p.Interm = bestInterm
	} else {
		p.Interm = -1
		p.Phase = 1
	}
}

// ugalCost is the cost of the path src -> via -> dst; via == dst names
// the minimal path. UGAL-L weights its hop count by the queue estimate of
// its first hop; UGAL-G (global) sums the estimates of every hop along it.
func ugalCost(s *Sim, src, via, dst int32, global bool) int {
	if global {
		return pathCost(s, src, via) + pathCost(s, via, dst)
	}
	hops := s.Router().ValiantLen(int(src), int(via), int(dst))
	return hops * s.QueueEstimate(src, int(s.PortToward(src, via)))
}

// pathCost walks the minimal route from a to b, accumulating every hop's
// output queue estimate (global information). The walk is two table loads
// per hop: the port toward b, then the neighbour behind that port.
func pathCost(s *Sim, a, b int32) int {
	cost := 0
	cur := a
	for cur != b {
		port := s.PortToward(cur, b)
		cost += s.QueueEstimate(cur, int(port)) + 1
		cur = s.PortNeighbor(cur, port)
	}
	return cost
}

// FTANCA is the Adaptive Nearest Common Ancestor protocol for the 3-level
// fat tree (Section V, after Gomez et al.): packets climb adaptively
// (least-loaded up port) until they reach an ancestor of the destination,
// then descend deterministically. Router-id candidates are translated to
// ports via PortToward, which is exact for neighbours (minimal tables route
// adjacent pairs directly).
type FTANCA struct {
	FT *fattree.FatTree
}

// Name implements Algo.
func (FTANCA) Name() string { return "ANCA" }

// OnInject implements Algo.
func (FTANCA) OnInject(*Sim, *Packet) {}

// Paths implements Algo. Up*/down* routing is acyclic, so deadlock
// freedom does not depend on the hop-indexed VC discipline and the engine
// spreads flits across all VCs: each input port becomes several parallel
// queues, which removes most head-of-line blocking (without it an
// input-queued router saturates well below full throughput on uniform
// traffic).
func (FTANCA) Paths() route.PathSet { return route.UpDown }

// TargetPort implements Algo.
func (a FTANCA) TargetPort(s *Sim, p *Packet, r int32) int32 {
	ft := a.FT
	ar := ft.Arity
	dEdge := int(p.DstRouter) // destination edge switch: id in [0, p^2)
	da, db := dEdge/ar, dEdge%ar
	switch ft.Level(int(r)) {
	case 0: // edge switch (not destination): climb to an aggregation switch
		ea := int(r) / ar
		return a.bestUp(s, r, func(j int) int32 { return int32(ar*ar + ea*ar + j) })
	case 1: // aggregation switch
		aa := (int(r) - ar*ar) / ar
		j := (int(r) - ar*ar) % ar
		if aa == da {
			return s.PortToward(r, int32(da*ar+db)) // descend into the destination edge
		}
		// Climb to a core switch in our column j.
		return a.bestUp(s, r, func(i int) int32 { return int32(2*ar*ar + i*ar + j) })
	default: // core switch: descend to the destination pod's agg in our column
		j := (int(r) - 2*ar*ar) % ar
		return s.PortToward(r, int32(ar*ar+da*ar+j))
	}
}

// bestUp returns the port toward an up-neighbour (candidates generated by
// gen for indices 0..arity-1) drawn uniformly from the ports whose queue
// estimate is within one flit of the minimum. Choosing the strict argmin
// would herd every head of a cycle onto a single port (one estimate is
// almost always strictly lowest), serialising the switch; the +1 tolerance
// window keeps the adaptivity while spreading simultaneous decisions,
// emulating the per-packet port arbitration of a hardware allocator.
//
// The tie-break draws come from router r's allocation stream (PortRNG),
// never the shared injection stream, so a draw depends only on the router's
// own history (the ANCA golden was recorded this way).
func (a FTANCA) bestUp(s *Sim, r int32, gen func(i int) int32) int32 {
	arity := a.FT.Arity
	var ests [64]int
	minQ := 1 << 30
	for i := 0; i < arity; i++ {
		q := s.QueueEstimate(r, int(s.PortToward(r, gen(i))))
		ests[i] = q
		if q < minQ {
			minQ = q
		}
	}
	cand := 0
	for i := 0; i < arity; i++ {
		if ests[i] <= minQ+1 {
			cand++
		}
	}
	pick := s.PortRNG(r).Intn(cand)
	for i := 0; i < arity; i++ {
		if ests[i] <= minQ+1 {
			if pick == 0 {
				return s.PortToward(r, gen(i))
			}
			pick--
		}
	}
	return s.PortToward(r, gen(0)) // unreachable
}
