package sim

// The switch/VC allocator. Every cycle runs
//
//	credits -> injection -> allocRouter for each active router, ascending id
//
// on the goroutine that steps the simulation. allocRouter gathers one
// router's requests, then grants them output by output and applies each
// grant as it is chosen: an ejection, or a hop that copies the flit into the
// downstream queue with a ReadyAt stamp. Applying a grant at once changes
// nothing a later decision of the cycle reads, in this router or another:
//
//   - every request, TargetPort call, UGAL queue probe and adaptive RNG draw
//     of a router happens in its request pass, before its first grant;
//   - each input queue requests at most once per cycle, so it sits in one
//     output's bucket, and dropping its head changes no other candidate;
//   - a grant writes its own input queue, its own output's departure stamp
//     and credits (exactly what that output's later grants must see), and a
//     neighbour's queue behind a future ReadyAt stamp, which is invisible to
//     every allocator scan this cycle;
//   - credits returned upstream move through a FIFO ring and surface at
//     cycle starts;
//   - round-robin pointers are only ever read by their own router;
//   - adaptive algorithms draw from per-router RNG streams (PortRNG),
//     derived from the seed by stats.RNG jumps; injection draws from the
//     main stream.
//
// The goldens (TestGoldenResults, TestGeneratedScenarioParity,
// TestWideRouterPinned) were recorded with the per-router streams and the
// ascending worklist, so both stay. TestStepZeroAlloc covers the
// steady-state zero-allocation contract.

import "math/bits"

// allocScratch is the allocator's switch-allocation scratch, owned by the
// Sim, reused by every allocRouter call and sized once to the widest router
// (allocation-free steady state). Requests are bucketed by output with a
// stable counting sort: scrQ/scrOut hold the first-pass (queue, output)
// pairs, scrCnt/scrOff the per-output counts and offsets, scrBkt the queue
// indices grouped by output. scrMask has one bit per output, set while
// scrCnt[output] != 0: the allocator visits only requested outputs, and both
// are all-zero between allocRouter calls (the grant pass clears what the
// request pass set).
type allocScratch struct {
	scrQ, scrOut, scrBkt []int32
	scrCnt, scrOff       []int32
	scrMask              []uint64
}

// allocRouter performs combined switch/VC allocation for one router and
// applies it: each output grants up to Speedup requests among eligible input
// heads, round-robin for fairness, and each grant takes effect as it is made
// (the ejection's delivery, or hop). Requests are gathered into per-output
// buckets on the preallocated scratch (a stable counting sort by output
// port), so the hot loop performs no heap allocation, and the work after the
// request scan is proportional to the outputs requested, not to the router's
// radix: pass 1 sets a bit per requested output in scrMask and the prefix
// sum and the grant pass walk the set bits in ascending order -- the order,
// candidates and round-robin arithmetic of a 0..outputs-1 loop. scrCnt and
// scrMask are all-zero on entry and on return: pass 2 clears each count and
// mask word as it consumes it. A TargetPort panic in pass 1 leaves them
// dirty; a Sim whose step panicked is dead and must not be stepped again.
//
// TargetPort runs in pass 1, against the router's state before any of its
// grants: implementations must be read-only apart from idempotent mutations
// of the probed packet and (adaptive algorithms) draws from the router's
// PortRNG stream.
//
//sf:hotpath
func (s *Sim) allocRouter(r int32, rt *router) {
	cfg := &s.cfg
	sc := &s.alloc
	deg := len(rt.nbr)
	outputs := len(rt.rr)

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
	// start is off[out]-cnt[out]. Each grant is applied before the next is
	// chosen, so the output's departure stamp and credits already count its
	// earlier grants this cycle.
	for w, m := range mask {
		mask[w] = 0
		for ; m != 0; m &= m - 1 {
			out := w<<6 + bits.TrailingZeros64(m)
			ncand := int(cnt[out])
			cnt[out] = 0
			cand := sc.scrBkt[off[out]-int32(ncand) : off[out]]
			idx := int(rt.rr[out]) % ncand
			rt.rr[out] = (rt.rr[out] + 1) % int32(ncand)
			if out >= deg {
				// Ejection channel: one flit per cycle, the round-robin head.
				qi := int(cand[idx])
				s.deliver(r, rt.headPkt(qi))
				s.dropHead(rt, r, qi)
				continue
			}
			for i := 0; i < ncand; i++ {
				qi := int(cand[idx])
				idx++
				if idx == ncand {
					idx = 0
				}
				// Network hop: need staging space (outBusy-cycle departures still
				// booked; negative on a drained output) and a downstream credit
				// for the next-hop VC.
				if rt.outBusy[out]-cycle32 >= int32(cfg.Speedup) {
					break // output staging exhausted this cycle
				}
				// VC allocation. Default: hop-indexed (Gopal's scheme,
				// Section IV-D) -- hop k travels on VC k. Algorithms with
				// acyclic routing may instead spread across VCs, choosing the
				// one with the most credits.
				var nextVC int8
				if s.spreadVCs {
					base := out * cfg.NumVCs
					best := int16(-1)
					for v := 0; v < cfg.NumVCs; v++ {
						if c := rt.credits[base+v]; c > best {
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
					if rt.credits[out*cfg.NumVCs+int(nextVC)] == 0 {
						continue
					}
				}
				s.hop(r, rt, qi, out, nextVC)
			}
		}
	}
}

// hop moves the head of router r's input queue qi through network output
// out onto next-hop VC vc, touching the flit once: it is copied straight into
// a tail slot of the downstream router's pool, stamped with Hops and ReadyAt
// there and published, and dropHead then retires the source head (credit
// return, occupancy, head cache). The ReadyAt stamp follows the output's
// departure stamp, which each hop advances and the output's later grants
// this cycle read as its staging. The Hop collector hook fires here too, at
// grant time, carrying the departure cycle.
//
//sf:hotpath
func (s *Sim) hop(r int32, rt *router, qi, out int, vc int8) {
	cfg := &s.cfg
	// src points into this router's pool and must survive the push below: it
	// does, because that push is into a neighbour's pool and no router is its
	// own neighbour.
	src := rt.headPkt(qi)
	// The flit departs onto the link only after the flits already staged on
	// this output (one per cycle), and then pays the channel and pipeline
	// delays; ReadyAt encodes all of it, and the head is invisible to the
	// downstream allocator until then. The credit taken here is what keeps
	// the downstream queue within depth.
	dst := rt.nbr[out]
	drt := &s.routers[dst]
	dqi := int(rt.revPort[out])*cfg.NumVCs + int(vc)
	p := drt.pushTail(dqi)
	*p = *src
	p.Hops = src.Hops + 1
	depart := max(rt.outBusy[out], int32(s.cycle))
	rt.outBusy[out] = depart + 1
	p.ReadyAt = depart + int32(cfg.ChannelDelay) + int32(cfg.RouterDelay)
	rt.credits[out*cfg.NumVCs+int(vc)]--
	if s.colHop && depart >= int32(cfg.Warmup) && int64(depart) < s.windowEnd {
		s.col.Hop(r, int32(out), int64(depart))
	}
	if s.colPkt && src.Measured {
		s.col.PacketHop(pktID(src.Src, src.Birth), r, int32(out), vc, s.cycle)
	}
	s.publish(drt, dst, dqi, p)
	s.dropHead(rt, r, qi)
}
