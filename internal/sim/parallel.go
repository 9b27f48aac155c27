package sim

// The switch/VC allocator. Every cycle runs
//
//	credits -> injection -> for each active router, ascending id: DECIDE, COMMIT
//
// on the goroutine that steps the simulation. decideRouter runs one router's
// allocation logic against its pre-allocation state and records the grants
// into the simulator's allocation scratch; commitGrant then applies each
// record: ReadyAt-stamped downstream delivery or ejection, the output's
// departure stamp, then dequeue and credit return. A router's commit changes
// nothing a later router's decision reads, because within one cycle a
// router's allocation depends only on its own state:
//
//   - flits delivered downstream this cycle carry ReadyAt stamps in the
//     future, so they are invisible to every allocator scan;
//   - credits move through a FIFO ring and surface at cycle starts;
//   - credit and staging consumption is router-local (counted from the
//     grants already recorded for the output, replayed by commit);
//   - round-robin pointers are only ever read by their own router;
//   - adaptive algorithms draw from per-router RNG streams (PortRNG),
//     derived from the seed by stats.RNG jumps; injection draws from the
//     main stream.
//
// The goldens (TestGoldenResults, TestGeneratedScenarioParity,
// TestWideRouterPinned) were recorded with the per-router streams, the
// ascending worklist and this decide -> record -> commit order, so all three
// stay. TestStepZeroAlloc covers the steady-state zero-allocation contract.

import "math/bits"

// grantRec is one recorded allocation grant: the deciding router's input
// queue qi moves through output port out (an ejection port when out >=
// degree) on next-hop VC vc.
type grantRec struct {
	qi  int32
	out int32
	vc  int8
}

// allocScratch is the allocator's working set, owned by the Sim and reused
// by every decideRouter call: the grants recorded for commitGrant, and the
// switch-allocation scratch, sized once to the widest router (allocation-free
// steady state). Requests are bucketed by output with a stable counting sort:
// scrQ/scrOut hold the first-pass (queue, output) pairs, scrCnt/scrOff the
// per-output counts and offsets, scrBkt the queue indices grouped by output.
// scrMask has one bit per output, set while scrCnt[output] != 0: the
// allocator visits only requested outputs, and both are all-zero between
// decideRouter calls (the grant pass clears what the request pass set).
type allocScratch struct {
	recs                 []grantRec
	scrQ, scrOut, scrBkt []int32
	scrCnt, scrOff       []int32
	scrMask              []uint64
}

// decideRouter performs combined switch/VC allocation for one router
// without applying it: each output grants up to Speedup requests among
// eligible input heads, round-robin for fairness, and every grant is
// appended to s.alloc.recs for commitGrant. Requests are gathered into
// per-output buckets on the preallocated scratch (a stable counting sort by
// output port), so the hot loop performs no heap allocation, and the work
// after the request scan is proportional to the outputs requested, not to the
// router's radix: pass 1 sets a bit per requested output in scrMask and the
// prefix sum and the grant pass walk the set bits in ascending order -- the
// order, candidates and round-robin arithmetic of a 0..outputs-1 loop.
// scrCnt and scrMask are all-zero on entry and on return: pass 2 clears each
// count and mask word as it consumes it. A TargetPort panic in pass 1 leaves
// them dirty; a Sim whose step panicked is dead and must not be stepped again.
//
// Queue contents, occupancy, head caches, credits, staging and measurement
// state are commitGrant's to write; the only in-place updates here are the
// router's own round-robin pointers and (for adaptive algorithms) draws from
// its PortRNG stream. TargetPort runs here, against the pre-allocation state:
// implementations must be read-only apart from idempotent mutations of the
// probed packet.
//
//sf:hotpath
func (s *Sim) decideRouter(r int32, rt *router) {
	cfg := &s.cfg
	sc := &s.alloc
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
	cnt := sc.scrCnt[:outputs]
	mask := sc.scrMask[:(outputs+63)>>6]
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
			sc.scrQ[nreq] = int32(q)
			sc.scrOut[nreq] = out
			cnt[out]++
			mask[out>>6] |= 1 << (uint(out) & 63)
			nreq++
		}
	}
	if nreq == 0 {
		return
	}

	// Bucket by output, stable in input-queue order.
	off := sc.scrOff[:outputs]
	sum := int32(0)
	for w, m := range mask {
		for ; m != 0; m &= m - 1 {
			o := w<<6 + bits.TrailingZeros64(m)
			off[o] = sum
			sum += cnt[o]
		}
	}
	for k := 0; k < nreq; k++ {
		o := sc.scrOut[k]
		sc.scrBkt[off[o]] = sc.scrQ[k]
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
			cand := sc.scrBkt[off[out]-int32(ncand) : off[out]]
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
					sc.recs = append(sc.recs, grantRec{qi: int32(qi), out: int32(out)}) //sf:allow(append: recs carries the per-cycle grant bound from New)
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
				mine := sc.recs[len(sc.recs)-granted:]
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
				sc.recs = append(sc.recs, grantRec{qi: int32(qi), out: int32(out), vc: nextVC}) //sf:allow(append: recs carries the per-cycle grant bound from New)
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

// commitGrant applies one grant recorded for router r, touching the flit
// once: ejection hands the source slot (headPkt) to deliver; a network hop
// copies it straight into a tail slot of the downstream router's pool, stamps
// Hops and ReadyAt there, and publishes it. Either way dropHead then retires
// the source head (credit return, occupancy, head cache). A router's grants
// are committed in decide order right after it decides; the ReadyAt stamp
// follows the output's departure stamp, which each replayed grant advances,
// matching the staging decideRouter counted. The Hop collector hook fires
// here too, at grant time, carrying the departure cycle.
//
//sf:hotpath
func (s *Sim) commitGrant(r int32, rt *router, rec grantRec) {
	cfg := &s.cfg
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
