package sim

import (
	"fmt"
	"strings"
	"testing"

	"slimfly/internal/route"
	"slimfly/internal/topo/slimfly"
	"slimfly/internal/traffic"
)

// brokenAlgo violates the TargetPort contract by answering with a port
// that is not a network output. The static flag selects which engine path
// evaluates it through the declared path set: the setHead reveal path
// (Minimal) or the per-cycle allocator scan (UpDown).
type brokenAlgo struct{ static bool }

func (brokenAlgo) Name() string                          { return "broken" }
func (brokenAlgo) OnInject(*Sim, *Packet)                {}
func (brokenAlgo) TargetPort(*Sim, *Packet, int32) int32 { return 999 }
func (b brokenAlgo) Paths() route.PathSet {
	if b.static {
		return route.Minimal
	}
	return route.UpDown
}

// TestBadTargetPortPanics pins the engine's misroute diagnostic: a routing
// algorithm answering with an out-of-range port must fail immediately with
// a panic naming the algorithm, the router, and the packet, instead of an
// anonymous index-out-of-range deep in the allocator -- and never a silent
// out-of-range write. The panic propagates out of Run unchanged: nothing in
// the engine recovers it.
func TestBadTargetPortPanics(t *testing.T) {
	sf := slimfly.MustNew(5)
	tb := route.Build(sf.Graph())
	for _, static := range []bool{false, true} {
		static := static
		t.Run(fmt.Sprintf("static=%v/%s", static, inline), func(t *testing.T) {
			s, err := New(Config{
				Topo: sf, Router: tb, Algo: brokenAlgo{static: static},
				Pattern: traffic.Uniform{N: sf.Endpoints()},
				Load:    0.5, Warmup: 20, Measure: 20, Drain: 20, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("misrouting algorithm did not panic")
				}
				msg := fmt.Sprint(r)
				for _, want := range []string{"broken", "invalid output port 999", "router", "src=", "dstRouter="} {
					if !strings.Contains(msg, want) {
						t.Errorf("panic message missing %q:\n%s", want, msg)
					}
				}
			}()
			s.Run()
		})
	}
}
