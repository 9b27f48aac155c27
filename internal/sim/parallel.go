package sim

// The switch/VC allocator and its two schedules. Every cycle runs
//
//	credits -> injection -> DECIDE -> COMMIT
//
// over max(Config.Workers, 1) contiguous router shards. decideRouter runs
// one router's allocation logic against the pre-allocation state and
// records grants into shard scratch; commitGrant applies one record:
// ReadyAt-stamped downstream delivery or ejection, the output's departure
// stamp, then dequeue and credit return. With one shard, step decides and
// immediately commits router by router in ascending id order, on the
// stepping goroutine. With more, all shards decide concurrently against the
// frozen state and the records are then committed in ascending router-id
// order. Both schedules mutate
// state in the same order and produce bit-identical results because,
// within one cycle, a router's allocation decisions depend only on its own
// frozen state:
//
//   - flits delivered downstream this cycle carry ReadyAt stamps in the
//     future, so they are invisible to every allocator scan;
//   - credits move through a FIFO ring and surface at cycle starts;
//   - credit and staging consumption is router-local (counted from the
//     grants already recorded for the output, replayed by commit);
//   - round-robin pointers are only ever read by their own router;
//   - adaptive algorithms draw from per-router RNG streams (PortRNG),
//     derived from the seed by stats.RNG jumps, so no draw depends on the
//     visit order or the worker count; injection stays serial on the main
//     stream.
//
// TestGoldenResultsParallel, TestGeneratedScenarioParity and
// TestCrossWorkerDeterminism pin the equivalence; TestStepZeroAlloc covers
// the steady-state zero-allocation contract of both schedules.

import (
	"math/bits"
	"sync"

	"slimfly/internal/obs"
)

// obsBarrierWaits counts decide-phase barrier synchronisations: one per
// multi-shard cycle. A single atomic add on the stepping goroutine, so the
// hot path stays allocation-free.
var obsBarrierWaits = obs.NewCounter("sim.barrier_waits")

// grantRec is one recorded allocation grant: router's input queue qi moves
// through output port out (an ejection port when out >= degree) on next-hop
// VC vc.
type grantRec struct {
	router int32
	qi     int32
	out    int32
	vc     int8
}

// shardState is one shard's decide-phase working set: a contiguous
// router-id range, the recorded grants, and the allocation scratch. Only
// the shard that owns it ever touches it.
type shardState struct {
	lo, hi int32 // router-id range [lo, hi)

	// Decide output, replayed by commit in shard order (shard ranges and
	// per-shard iteration are both ascending, so the concatenation is
	// globally ascending in router id).
	recs []grantRec

	// Switch-allocation scratch, sized once to the widest router and
	// reused every cycle (allocation-free steady state). Requests are
	// bucketed by output with a stable counting sort: scrQ/scrOut hold
	// the first-pass (queue, output) pairs, scrCnt/scrOff the per-output
	// counts and offsets, scrBkt the queue indices grouped by output.
	// scrMask has one bit per output, set while scrCnt[output] != 0: the
	// allocator visits only requested outputs, and both are all-zero between
	// decideRouter calls (the grant pass clears what the request pass set).
	scrQ, scrOut, scrBkt []int32
	scrCnt, scrOff       []int32
	scrMask              []uint64

	// The shard's segment of the sorted active worklist this cycle.
	activeLo, activeHi int

	// A decide-phase panic (e.g. a TargetPort contract violation),
	// captured on the worker and re-raised on the main goroutine so the
	// descriptive misroute diagnostic survives parallel execution.
	panicVal any
}

// parEngine holds the shards and, for two or more of them, the decide
// worker pool. Workers are started lazily on the first multi-shard step
// and stopped by Close (Run does this automatically); each worker owns
// one fixed shard, woken per cycle through its own buffered channel.
type parEngine struct {
	shards  []shardState
	start   []chan struct{}
	phaseWG sync.WaitGroup
	lifeWG  sync.WaitGroup
	quit    chan struct{}
	started bool
}

// newParEngine partitions the routers into min(max(workers, 1), nRouters)
// contiguous shards and presizes every per-shard buffer so steady-state
// steps never allocate. A router grants at most Speedup flits per network
// output plus one per endpoint, and at most one per input queue (each queue
// requests with its head only), so the smaller of the two bounds it however
// large Speedup is; the record capacity is that bound summed over the shard when
// records wait for the barrier, and the widest router's when the single
// shard commits them router by router.
func newParEngine(s *Sim, workers, maxQ, maxOutputs int) *parEngine {
	n := s.nRouters
	ns := min(max(workers, 1), n)
	cfg := &s.cfg
	pe := &parEngine{
		shards: make([]shardState, ns),
		start:  make([]chan struct{}, ns),
	}
	for k := range pe.shards {
		sh := &pe.shards[k]
		sh.lo = int32(k * n / ns)
		sh.hi = int32((k + 1) * n / ns)
		grantCap := 0
		for r := sh.lo; r < sh.hi; r++ {
			rt := &s.routers[r]
			g := min(len(rt.nbr)*cfg.Speedup+len(rt.eps), len(rt.queues))
			if ns == 1 {
				grantCap = max(grantCap, g)
			} else {
				grantCap += g
			}
		}
		sh.recs = make([]grantRec, 0, grantCap)
		sh.scrQ = make([]int32, maxQ)
		sh.scrOut = make([]int32, maxQ)
		sh.scrBkt = make([]int32, maxQ)
		sh.scrCnt = make([]int32, maxOutputs)
		sh.scrOff = make([]int32, maxOutputs)
		sh.scrMask = make([]uint64, (maxOutputs+63)/64)
		pe.start[k] = make(chan struct{}, 1)
	}
	return pe
}

// startWorkers launches one goroutine per shard beyond the first (the
// main goroutine decides shard 0 itself while waiting). It runs once per
// pool lifetime, not per cycle -- //sf:coldpath exempts the goroutine
// launches from the hot-path allocation rule.
//
//sf:coldpath
func (s *Sim) startWorkers() {
	pe := s.par
	pe.quit = make(chan struct{})
	for w := 1; w < len(pe.shards); w++ {
		pe.lifeWG.Add(1)
		go s.decideWorker(w)
	}
	pe.started = true
}

func (s *Sim) decideWorker(w int) {
	pe := s.par
	defer pe.lifeWG.Done()
	for {
		select {
		case <-pe.quit:
			return
		case <-pe.start[w]:
			s.decideShard(&pe.shards[w])
			pe.phaseWG.Done()
		}
	}
}

// Close stops the decide-phase workers. It is idempotent, a no-op on
// single-shard simulators, and restartable (the next step relaunches the
// pool). Run closes on exit; only callers stepping a multi-shard simulator
// manually (benchmarks, tests) need to call it.
func (s *Sim) Close() {
	pe := s.par
	if !pe.started {
		return
	}
	close(pe.quit)
	pe.lifeWG.Wait()
	pe.started = false
}

// decideSharded runs the decide phase of a multi-shard cycle: every shard
// against the frozen state, shard 0 on the stepping goroutine, with a
// barrier before the caller commits.
//
//sf:hotpath
func (s *Sim) decideSharded() {
	pe := s.par
	// Hand each shard its contiguous segment of the sorted worklist
	// (shard ranges tile [0, nRouters), so one forward scan suffices).
	pos, n := 0, len(s.active)
	for k := range pe.shards {
		sh := &pe.shards[k]
		for pos < n && s.active[pos] < sh.lo {
			pos++
		}
		sh.activeLo = pos
		for pos < n && s.active[pos] < sh.hi {
			pos++
		}
		sh.activeHi = pos
	}

	if !pe.started {
		s.startWorkers()
	}
	nw := len(pe.shards)
	pe.phaseWG.Add(nw - 1)
	for w := 1; w < nw; w++ {
		pe.start[w] <- struct{}{}
	}
	s.decideShard(&pe.shards[0])
	pe.phaseWG.Wait()
	obsBarrierWaits.Inc()
	for k := range pe.shards {
		if p := pe.shards[k].panicVal; p != nil {
			pe.shards[k].panicVal = nil
			panic(p)
		}
	}
}

// decideShard runs the allocation decision logic for every active router
// of one shard, recording grants into the shard scratch. Panics are
// captured for re-raise on the main goroutine.
//
//sf:hotpath
//sf:decide
func (s *Sim) decideShard(sh *shardState) {
	defer func() {
		if p := recover(); p != nil {
			sh.panicVal = p
		}
	}()
	sh.recs = sh.recs[:0]
	for _, r := range s.active[sh.activeLo:sh.activeHi] {
		rt := &s.routers[r]
		if rt.flits == 0 {
			continue
		}
		s.decideRouter(r, rt, sh)
	}
}

// decideRouter performs combined switch/VC allocation for one router
// without applying it: each output grants up to Speedup requests among
// eligible input heads, round-robin for fairness, and every grant is
// appended to sh.recs for commitGrant. Requests are gathered into
// per-output buckets on the shard's preallocated scratch (a stable counting
// sort by output port), so the hot loop performs no heap allocation, and the
// work after the request scan is proportional to the outputs requested, not
// to the router's radix: pass 1 sets a bit per requested output in sh.scrMask
// and the prefix sum and the grant pass walk the set bits in ascending order
// -- the order, candidates and round-robin arithmetic of a 0..outputs-1 loop.
// scrCnt and scrMask are all-zero on entry and on return: pass 2 clears each
// count and mask word as it consumes it. A TargetPort panic in pass 1 leaves
// them dirty; a Sim whose step panicked is dead and must not be stepped again.
//
// It mutates nothing another shard could observe -- queue contents,
// occupancy, head caches, credits, staging and measurement state are all
// commit-phase writes; the only in-place updates are the router's own
// round-robin pointers and (for adaptive algorithms) draws from its
// private PortRNG stream, neither visible outside the router. TargetPort
// runs here, against the frozen state: implementations must be read-only
// apart from idempotent mutations of the probed packet. cmd/sfvet's
// decidepure pass proves the contract statically: writes may target only
// the shard scratch, the router's rr pointers and the probed packet's
// idempotent fields.
//
//sf:hotpath
//sf:decide
func (s *Sim) decideRouter(r int32, rt *router, sh *shardState) {
	cfg := &s.cfg
	deg := len(rt.nbr)
	outputs := deg + len(rt.eps)

	// Pass 1: one request per eligible input-queue head, tagged with its
	// output port. The occupancy bitmask walks exactly the non-empty queues
	// in ascending index order (the same order a full scan would visit
	// them), so idle queues cost nothing, and the head cache answers
	// readiness, the ejection port and -- for static algorithms -- the
	// TargetPort decision without touching a packet. Adaptive algorithms
	// (queue state, RNG) decide afresh each cycle for every ready transit
	// head.
	cnt := sh.scrCnt[:outputs]
	mask := sh.scrMask[:(outputs+63)>>6]
	nreq := 0
	cycle32 := int32(s.cycle)
	for w, m := range rt.occ {
		base := w << 6
		for m != 0 {
			q := base + bits.TrailingZeros64(m)
			m &= m - 1
			readyAt, out, _ := unpackHead(rt.queues[q].state)
			if readyAt > cycle32 {
				continue
			}
			if !s.staticPorts && int(out) < deg {
				pkt := rt.headPkt(q)
				out = cfg.Algo.TargetPort(s, pkt, r)
				if out < 0 || int(out) >= deg {
					s.badTargetPort(r, pkt, out, deg)
				}
			}
			sh.scrQ[nreq] = int32(q)
			sh.scrOut[nreq] = out
			cnt[out]++
			mask[out>>6] |= 1 << (uint(out) & 63)
			nreq++
		}
	}
	if nreq == 0 {
		return
	}

	// Bucket by output, stable in input-queue order.
	off := sh.scrOff[:outputs]
	sum := int32(0)
	for w, m := range mask {
		for ; m != 0; m &= m - 1 {
			o := w<<6 + bits.TrailingZeros64(m)
			off[o] = sum
			sum += cnt[o]
		}
	}
	for k := 0; k < nreq; k++ {
		o := sh.scrOut[k]
		sh.scrBkt[off[o]] = sh.scrQ[k]
		off[o]++
	}

	// Pass 2: round-robin grant selection per requested output, clearing the
	// mask and the counts on the way. off[out] is now the bucket end; the
	// start is off[out]-cnt[out]. Later grants of an output must see the
	// staging slots and credits its earlier grants consumed, and the router's
	// state may not be written here: granted is the staging consumed so far,
	// and the output's last granted records name the credits.
	for w, m := range mask {
		mask[w] = 0
		for ; m != 0; m &= m - 1 {
			out := w<<6 + bits.TrailingZeros64(m)
			ncand := int(cnt[out])
			cnt[out] = 0
			cand := sh.scrBkt[off[out]-int32(ncand) : off[out]]
			grants := cfg.Speedup
			if out >= deg {
				grants = 1 // ejection channel: one flit per cycle
			}
			idx := int(rt.rr[out]) % ncand
			granted := 0
			for i := 0; i < ncand && granted < grants; i++ {
				qi := int(cand[idx])
				idx++
				if idx == ncand {
					idx = 0
				}
				if out >= deg {
					sh.recs = append(sh.recs, grantRec{router: r, qi: int32(qi), out: int32(out)}) //sf:allow(append: recs carries grantCap, the per-cycle grant bound, from newParEngine)
					granted++
					continue
				}
				// Network hop: need staging space (outBusy-cycle departures still
				// booked; negative on a drained output, harmless under the loop
				// bound) and a downstream credit for the next-hop VC.
				if int(rt.outBusy[out]-cycle32)+granted >= cfg.Speedup {
					break // output staging exhausted this cycle
				}
				// VC allocation. Default: hop-indexed (Gopal's scheme,
				// Section IV-D) -- hop k travels on VC k. Algorithms with
				// acyclic routing may instead spread across VCs, choosing the
				// one with the most credits.
				mine := sh.recs[len(sh.recs)-granted:]
				var nextVC int8
				if s.spreadVCs {
					base := out * cfg.NumVCs
					best := int16(-1)
					for v := 0; v < cfg.NumVCs; v++ {
						if c := rt.credits[base+v] - vcTaken(mine, int8(v)); c > best {
							best = c
							nextVC = int8(v)
						}
					}
					if best == 0 {
						continue
					}
				} else {
					_, _, nextVC = unpackHead(rt.queues[qi].state)
					if int(nextVC) >= cfg.NumVCs {
						nextVC = int8(cfg.NumVCs - 1)
					}
					if rt.credits[out*cfg.NumVCs+int(nextVC)]-vcTaken(mine, nextVC) == 0 {
						continue
					}
				}
				sh.recs = append(sh.recs, grantRec{router: r, qi: int32(qi), out: int32(out), vc: nextVC}) //sf:allow(append: recs carries grantCap, the per-cycle grant bound, from newParEngine)
				granted++
			}
			rt.rr[out] = (rt.rr[out] + 1) % int32(ncand)
		}
	}
}

// vcTaken counts the grants among recs that consumed a credit of next-hop
// VC vc. decideRouter passes one output's grants of the current cycle, at
// most Speedup-1 records.
func vcTaken(recs []grantRec, vc int8) int16 {
	n := int16(0)
	for i := range recs {
		if recs[i].vc == vc {
			n++
		}
	}
	return n
}

// commitGrant applies one recorded grant, touching the flit once: ejection
// hands the source slot (headPkt) to deliver; a network hop copies it
// straight into a tail slot of the downstream router's pool, stamps Hops and
// ReadyAt there, and publishes it. Either way dropHead then retires the
// source head (credit return, occupancy, head cache). Grants are committed
// in ascending router-id order, each router's in decide order; the ReadyAt
// stamp follows the output's departure stamp, which each replayed grant
// advances, matching the staging decideRouter counted. The Hop collector
// hook fires here too, at grant time, carrying the departure cycle.
//
//sf:hotpath
func (s *Sim) commitGrant(rec grantRec) {
	cfg := &s.cfg
	r := rec.router
	rt := &s.routers[r]
	qi, out := int(rec.qi), int(rec.out)
	// src points into this router's pool and must survive the push below: it
	// does, because that push is into a neighbour's pool and no router is its
	// own neighbour.
	src := rt.headPkt(qi)
	if out >= len(rt.nbr) {
		s.deliver(r, src) // ejection port
		s.dropHead(rt, r, qi)
		return
	}
	// Deliver downstream immediately. The flit departs onto the link only
	// after the flits already staged on this output (one per cycle), and
	// then pays the channel and pipeline delays; ReadyAt encodes all of it,
	// and the head is invisible to the downstream allocator until then.
	// The credit taken here is what keeps the downstream queue within depth.
	dst := rt.nbr[out]
	drt := &s.routers[dst]
	dqi := int(rt.revPort[out])*cfg.NumVCs + int(rec.vc)
	p := drt.pushTail(dqi)
	*p = *src
	p.Hops = src.Hops + 1
	depart := max(rt.outBusy[out], int32(s.cycle))
	rt.outBusy[out] = depart + 1
	p.ReadyAt = depart + int32(cfg.ChannelDelay) + int32(cfg.RouterDelay)
	rt.credits[out*cfg.NumVCs+int(rec.vc)]--
	if s.colHop && depart >= int32(cfg.Warmup) && int64(depart) < s.windowEnd {
		s.col.Hop(r, int32(out), int64(depart))
	}
	if s.colPkt && src.Measured {
		s.col.PacketHop(pktID(src.Src, src.Birth), r, int32(out), rec.vc, s.cycle)
	}
	s.publish(drt, dst, dqi, p)
	s.dropHead(rt, r, qi)
}
