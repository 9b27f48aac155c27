package sim

import (
	"fmt"
	"testing"

	"slimfly/internal/route"
	"slimfly/internal/topo/slimfly"
	"slimfly/internal/traffic"
)

// checkConservation asserts the engine's buffer bookkeeping between two
// steps: for every (router, network output, VC) the upstream credit
// counter, the downstream ring's occupancy and the credit events still in
// the wheel account for exactly bufPerVC slots; a queue's occupancy bit is
// set iff it holds a flit; and rt.flits is the sum of the queue lengths.
// It returns the number of measured packets buffered anywhere. Test-only:
// it reads engine state from outside, the engine has no hook for it.
func checkConservation(t *testing.T, s *Sim) (measured int64) {
	t.Helper()
	vcs := s.cfg.NumVCs
	type triple struct{ router, port, vc int32 }
	inWheel := map[triple]int{}
	for _, slot := range s.credWheel {
		for _, c := range slot {
			inWheel[triple{c.router, c.port, int32(c.vc)}]++
		}
	}
	for r := range s.routers {
		rt := &s.routers[r]
		flits := 0
		for q := range rt.headState {
			var n int
			if q < len(rt.ring) {
				rp := rt.ring[q]
				n = int(rp.n)
				if int(rp.head) >= s.bufPerVC || n > s.bufPerVC {
					t.Fatalf("cycle %d router %d queue %d: ring position {head %d, n %d} outside depth %d", s.cycle, r, q, rp.head, rp.n, s.bufPerVC)
				}
				for i := 0; i < n; i++ {
					if rt.pkts[q*s.bufPerVC+(int(rp.head)+i)%s.bufPerVC].Measured {
						measured++
					}
				}
			} else {
				f := &rt.src[q-len(rt.ring)]
				n = len(f.buf) - f.head
				for _, p := range f.buf[f.head:] {
					if p.Measured {
						measured++
					}
				}
			}
			flits += n
			if occ := rt.occ[q>>6]>>(uint(q)&63)&1 == 1; occ != (n > 0) {
				t.Fatalf("cycle %d router %d queue %d: occ bit %v with %d flits queued", s.cycle, r, q, occ, n)
			}
		}
		if flits != rt.flits {
			t.Fatalf("cycle %d router %d: flits = %d, queues hold %d", s.cycle, r, rt.flits, flits)
		}
		for p, nb := range rt.nbr {
			down := &s.routers[nb]
			for v := 0; v < vcs; v++ {
				credits := int(rt.credits[p*vcs+v])
				queued := int(down.ring[int(rt.revPort[p])*vcs+v].n)
				returning := inWheel[triple{int32(r), int32(p), int32(v)}]
				if credits+queued+returning != s.bufPerVC {
					t.Fatalf("cycle %d router %d port %d vc %d: credits %d + downstream occupancy %d + credits in flight %d != depth %d",
						s.cycle, r, p, v, credits, queued, returning, s.bufPerVC)
				}
			}
		}
	}
	return measured
}

// TestRingConservation steps a near-saturated Slim Fly cycle by cycle, far
// enough for every busy ring to wrap several times, and checks the
// credit/occupancy conservation laws after every cycle and the packet
// ledger at the end -- on one-flit rings (every push wraps), two-flit rings
// and the default depth, at the inline and the sharded schedule.
func TestRingConservation(t *testing.T) {
	sf := slimfly.MustNew(5)
	tb := route.Build(sf.Graph())
	for _, algo := range []Algo{MIN{}, UGALL{}} {
		vcs := algo.NeededVCs(tb.MaxDistance())
		for _, depth := range []int{1, 2, 21} {
			for _, workers := range []int{0, 4} {
				t.Run(fmt.Sprintf("%s/depth%d/w%d", algo.Name(), depth, workers), func(t *testing.T) {
					s, err := New(Config{
						Topo: sf, Router: tb, Algo: algo, Pattern: traffic.Uniform{N: sf.Endpoints()},
						Load: 0.95, NumVCs: vcs, BufPerPort: vcs * depth,
						Warmup: 1, Measure: 1, Seed: 23, Workers: workers,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					if s.bufPerVC != depth {
						t.Fatalf("bufPerVC = %d, want %d", s.bufPerVC, depth)
					}
					wrapped := false
					var measured int64
					for i := 0; i < 8*depth+150; i++ {
						s.step(true)
						s.cycle++
						measured = checkConservation(t, s)
						for r := range s.routers {
							for _, rp := range s.routers[r].ring {
								wrapped = wrapped || int(rp.head)+int(rp.n) > depth
							}
						}
					}
					if depth > 1 && !wrapped {
						t.Error("no ring ever held a window that wraps past its last slot; the test did not exercise wrap-around")
					}
					if s.injected != s.delivered+s.inFlight {
						t.Errorf("injected %d != delivered %d + inFlight %d", s.injected, s.delivered, s.inFlight)
					}
					if measured != s.inFlight {
						t.Errorf("queues hold %d measured packets, inFlight says %d", measured, s.inFlight)
					}
					if s.delivered == 0 {
						t.Error("nothing was delivered")
					}
				})
			}
		}
	}
}
