package sim

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"slimfly/internal/route"
	"slimfly/internal/topo"
	"slimfly/internal/topo/fattree"
	"slimfly/internal/topo/slimfly"
	"slimfly/internal/traffic"
)

// checkConservation asserts the engine's buffer bookkeeping between two
// steps. A queue record has no length field, so each queue's length is derived
// the only way the record allows: 0 when its occ bit is clear (head and tail
// are stale then), else the links walked from head until tail, bounded by the
// pool size. Per router: the queues and the free list together hold every pool
// slot exactly once (none leaked, none linked twice), network queues stay
// within depth, and rt.flits is the sum of the lengths. Per (router, network
// output, VC): the upstream credit counter, the downstream queue's length and
// the credit returns still in the ring, counted by their flat Sim.credits
// index, account for exactly bufPerVC flits. A wrong occ bit cannot hide
// behind being the definition of "empty": a clear bit on a queue that holds
// flits loses them from every one of those sums, and a set bit on a drained
// queue walks from a freed slot into the free list.
//
// Two timing laws hold with c the cycle just stepped. The ring: its events
// stand in non-decreasing due order with c < due <= c+CreditDelay. Staging:
// each network output has staged = max(outBusy, c)-c <= Speedup flits that
// depart at c or later, and the flits queued behind its link (whose ReadyAt
// is their departure plus the channel and pipeline delays) departed at
// distinct cycles before outBusy, exactly staged of them at c or later.
//
// visit is called for every queued slot; the return value is the number of
// measured packets buffered anywhere. Test-only: it reads engine state from
// outside, the engine has no hook for it.
func checkConservation(t *testing.T, s *Sim, visit func(r, q int, slot int32)) (measured int64) {
	t.Helper()
	vcs := s.cfg.NumVCs
	c := int32(s.cycle - 1)
	inFlight := map[int32]int{} // Sim.credits index -> credits returning to it
	due := int32(math.MinInt32)
	for i := 0; i < s.credLen; i++ {
		ev := s.credRing[(s.credHead+i)&(len(s.credRing)-1)]
		if ev.due < due || ev.due <= c || ev.due > c+int32(s.cfg.CreditDelay) {
			t.Fatalf("cycle %d: ring event %d of %d due at %d after one due at %d; want non-decreasing due in (%d, %d]",
				c, i, s.credLen, ev.due, due, c, c+int32(s.cfg.CreditDelay))
		}
		due = ev.due
		inFlight[ev.idx]++
	}
	length := make([][]int, len(s.routers)) // [router][queue]
	for r := range s.routers {
		rt := &s.routers[r]
		seen := make([]bool, len(rt.pkts))
		claim := func(where string, slot int32) {
			if slot < 0 || int(slot) >= len(rt.pkts) {
				t.Fatalf("cycle %d router %d %s: link to slot %d outside the pool of %d", s.cycle, r, where, slot, len(rt.pkts))
			}
			if seen[slot] {
				t.Fatalf("cycle %d router %d %s: slot %d is linked twice", s.cycle, r, where, slot)
			}
			seen[slot] = true
		}
		length[r] = make([]int, len(rt.queues))
		flits := 0
		for q, qu := range rt.queues {
			if rt.occ[q>>6]>>(uint(q)&63)&1 == 0 {
				continue
			}
			n := 0
			for slot := qu.head; ; slot = rt.pkts[slot].next {
				claim(fmt.Sprintf("queue %d", q), slot) // fails before a cycle could close: every slot once
				visit(r, q, slot)
				if rt.pkts[slot].Measured {
					measured++
				}
				n++
				if slot == qu.tail {
					break
				}
			}
			if q < len(rt.credits) && n > s.bufPerVC {
				t.Fatalf("cycle %d router %d queue %d: %d flits queued, depth %d", s.cycle, r, q, n, s.bufPerVC)
			}
			length[r][q] = n
			flits += n
		}
		if flits != rt.flits {
			t.Fatalf("cycle %d router %d: flits = %d, queues hold %d", s.cycle, r, rt.flits, flits)
		}
		free := 0
		for slot := rt.free; slot != -1; slot = rt.pkts[slot].next {
			claim("free list", slot)
			free++
		}
		if flits+free != len(rt.pkts) {
			t.Fatalf("cycle %d router %d: %d queued + %d free != %d pool slots", s.cycle, r, flits, free, len(rt.pkts))
		}
	}
	base := int32(0) // router r's counters start at Sim.credits[base]
	lag := int32(s.cfg.ChannelDelay + s.cfg.RouterDelay)
	for r := range s.routers {
		rt := &s.routers[r]
		for p, nb := range rt.nbr {
			for v := 0; v < vcs; v++ {
				credits := int(s.credits[base+int32(p*vcs+v)])
				queued := length[nb][int(rt.revPort[p])*vcs+v]
				returning := inFlight[base+int32(p*vcs+v)]
				if credits+queued+returning != s.bufPerVC {
					t.Fatalf("cycle %d router %d port %d vc %d: credits %d + downstream occupancy %d + credits in flight %d != depth %d",
						s.cycle, r, p, v, credits, queued, returning, s.bufPerVC)
				}
			}
			staged := max(rt.outBusy[p], c) - c
			if staged > int32(s.cfg.Speedup) {
				t.Fatalf("cycle %d router %d port %d: %d flits staged, speedup %d", c, r, p, staged, s.cfg.Speedup)
			}
			drt := &s.routers[nb]
			departed := map[int32]bool{}
			pending := int32(0)
			for v := 0; v < vcs; v++ {
				q := int(rt.revPort[p])*vcs + v
				if length[nb][q] == 0 {
					continue
				}
				for slot := drt.queues[q].head; ; slot = drt.pkts[slot].next {
					d := drt.pkts[slot].ReadyAt - lag
					if departed[d] || d >= rt.outBusy[p] {
						t.Fatalf("cycle %d router %d port %d: a queued flit departed at %d (twice: %v), departure stamp %d",
							c, r, p, d, departed[d], rt.outBusy[p])
					}
					departed[d] = true
					if d >= c {
						pending++
					}
					if slot == drt.queues[q].tail {
						break
					}
				}
			}
			if pending != staged {
				t.Fatalf("cycle %d router %d port %d: %d queued flits depart at %d or later, the stamp %d says %d",
					c, r, p, pending, c, rt.outBusy[p], staged)
			}
		}
		base += int32(len(rt.credits))
	}
	return measured
}

// TestRingConservation steps a near-saturated network cycle by cycle, far
// enough for every pool slot to change hands many times, and checks the
// credit/occupancy/pool conservation laws after every cycle and the packet
// ledger at the end -- at one-flit depth, two-flit depth and the default
// depth. MIN and UGAL-L run on Slim Fly q=5 at the default speedup; MIN
// also runs at speedup 1 and 3, where an output grants one or three flits a
// cycle, and ANCA on the arity-4 fat tree, where the VC is chosen by credits
// (its Paths are route.UpDown) rather than by hop. (The name predates the
// pools: the queues were rings over fixed windows once.)
func TestRingConservation(t *testing.T) {
	sf := slimfly.MustNew(5)
	sfTables := route.Build(sf.Graph())
	ft := fattree.MustNew(4)
	ftTables := route.Build(ft.Graph())
	for _, c := range []struct {
		name    string
		tp      topo.Topology
		tb      *route.Tables
		algo    Algo
		speedup int
	}{
		{"MIN", sf, sfTables, MIN{}, 0},
		{"UGAL-L", sf, sfTables, UGALL{}, 0},
		{"ANCA-FT4", ft, ftTables, FTANCA{FT: ft}, 0},
		{"MIN-speedup1", sf, sfTables, MIN{}, 1},
		{"MIN-speedup3", sf, sfTables, MIN{}, 3},
	} {
		vcs := c.algo.Paths().MaxHops(c.tb.MaxDistance())
		for _, depth := range []int{1, 2, 21} {
			t.Run(fmt.Sprintf("%s/depth%d/%s", c.name, depth, inline), func(t *testing.T) {
				s, err := New(Config{
					Topo: c.tp, Router: c.tb, Algo: c.algo, Pattern: traffic.Uniform{N: c.tp.Endpoints()},
					Load: 0.95, NumVCs: vcs, BufPerPort: vcs * depth, Speedup: c.speedup,
					Warmup: 1, Measure: 1, Seed: 23,
				})
				if err != nil {
					t.Fatal(err)
				}
				if s.bufPerVC != depth {
					t.Fatalf("bufPerVC = %d, want %d", s.bufPerVC, depth)
				}
				// lastQueue[r][slot] is the queue the slot was last seen in, +1.
				lastQueue := make([][]int, len(s.routers))
				reused := false
				var measured int64
				for i := 0; i < 8*depth+150; i++ {
					s.step(true)
					s.cycle++
					measured = checkConservation(t, s, func(r, q int, slot int32) {
						for int(slot) >= len(lastQueue[r]) {
							lastQueue[r] = append(lastQueue[r], 0)
						}
						reused = reused || lastQueue[r][slot] != 0 && lastQueue[r][slot] != q+1
						lastQueue[r][slot] = q + 1
					})
				}
				if !reused {
					t.Error("no freed slot was ever reused by a different queue; the test did not exercise the free list")
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

// TestQueueMemoryIndependentOfDepth pins what the pools are for: buffer depth
// is a credit count, so what New allocates does not depend on it, and after a
// run a router's pool is as large as the most flits it ever buffered at once.
// Nor does it depend on the credit delay (credits in flight share one ring
// that grows on demand) or on the speedup (it is a bound on the grants an
// output makes in a cycle, each applied as it is made, and nothing is sized
// by it): both arrive from the wire in a scenario spec, and neither may size
// an allocation.
func TestQueueMemoryIndependentOfDepth(t *testing.T) {
	sf := slimfly.MustNew(5)
	tb := route.Build(sf.Graph())
	cfg := Config{
		Topo: sf, Router: tb, Algo: MIN{}, Pattern: traffic.Uniform{N: sf.Endpoints()},
		Load: 0.5, NumVCs: 3, Warmup: 1, Measure: 1, Seed: 5,
	}
	newBytes := func(set func(*Config)) (*Sim, uint64) {
		c := cfg
		set(&c)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := New(c)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return s, after.TotalAlloc - before.TotalAlloc
	}
	depth := func(d int) func(*Config) { return func(c *Config) { c.BufPerPort = 3 * d } }
	newBytes(depth(21)) // absorb whatever the topology and tables build lazily on first use
	s, shallow := newBytes(depth(21))
	_, deep := newBytes(depth(32767)) // ~0.96 GB of ring windows before the pools
	if diff := max(deep, shallow) - min(deep, shallow); diff*100 >= shallow {
		t.Errorf("New allocates %d bytes at depth 21 and %d at depth 32767; want them within 1%%", shallow, deep)
	}
	_, def := newBytes(func(*Config) {})
	for _, k := range []struct {
		name string
		set  func(*Config)
	}{
		{"CreditDelay", func(c *Config) { c.CreditDelay = 100_000 }},
		{"Speedup", func(c *Config) { c.Speedup = 100_000 }},
	} {
		_, got := newBytes(k.set)
		if diff := max(got, def) - min(got, def); diff*100 >= 2*def {
			t.Errorf("New allocates %d bytes at %s 100000 and %d at the default; want them within 2%%", got, k.name, def)
		}
	}

	peak, slots := 0, 0
	for i := 0; i < 400; i++ {
		s.step(true)
		s.cycle++
		flits := 0
		for r := range s.routers {
			flits += s.routers[r].flits
		}
		peak = max(peak, flits)
	}
	for r := range s.routers {
		slots += len(s.routers[r].pkts)
	}
	// Routers do not all peak in the same cycle, so the pools hold somewhat
	// more than the network-wide peak; a pool sized by capacity would hold
	// 50 routers x 7 ports x 63 flits = 22 050 slots.
	if peak == 0 || slots < peak || slots > 3*peak {
		t.Errorf("pools hold %d slots after a run that buffered at most %d flits at once; want between 1x and 3x", slots, peak)
	}
}
