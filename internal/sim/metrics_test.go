package sim

import (
	"testing"

	"slimfly/internal/route"
	"slimfly/internal/topo/slimfly"
	"slimfly/internal/traffic"
)

// TestSummaryDistribution checks the distribution data a run reports
// through the latency and channel collectors: percentile ordering against
// the aggregate Result, and the hot-channel ranking.
func TestSummaryDistribution(t *testing.T) {
	sf := slimfly.MustNew(5)
	tb := route.Build(sf.Graph())
	res, sum, err := RunSummary(Config{
		Topo: sf, Router: tb, Algo: MIN{}, Pattern: traffic.Uniform{N: sf.Endpoints()},
		Load: 0.3, Warmup: 400, Measure: 1200, Drain: 6000, Seed: 3,
		Metrics: "latency,channels",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	// Percentiles ordered and consistent with the maximum.
	lat := sum.Latency
	if !(lat.P50 <= lat.P95 && lat.P95 <= lat.P99) {
		t.Errorf("percentiles not ordered: %v %v %v", lat.P50, lat.P95, lat.P99)
	}
	if float64(res.MaxLatency) < lat.P99 {
		t.Errorf("max latency %v below p99 %v", res.MaxLatency, lat.P99)
	}
	// Channel utilisation in (0, 1].
	if u := sum.Channels.MaxUtil; u <= 0 || u > 1.0001 {
		t.Errorf("max channel util = %v", u)
	}
	hot := sum.Channels.Hottest
	if len(hot) == 0 {
		t.Fatal("no hot channels recorded")
	}
	for i := 1; i < len(hot); i++ {
		if hot[i].Flits > hot[i-1].Flits {
			t.Error("hot channels not sorted")
		}
	}
}

func TestDetailedWorstCaseHotspot(t *testing.T) {
	// Under the adversarial pattern with MIN routing, the hottest channel
	// must run far above the average channel load -- that is the point of
	// the construction (Section V-C).
	sf := slimfly.MustNew(5)
	tb := route.Build(sf.Graph())
	wc := traffic.WorstCaseSF(sf, tb, 7)
	maxUtil := func(p traffic.Pattern) float64 {
		_, sum, err := RunSummary(Config{
			Topo: sf, Router: tb, Algo: MIN{}, Pattern: p,
			Load: 0.15, Warmup: 400, Measure: 1200, Drain: 6000, Seed: 4,
			Metrics: "channels",
		})
		if err != nil {
			t.Fatal(err)
		}
		return sum.Channels.MaxUtil
	}
	adv, uni := maxUtil(wc), maxUtil(traffic.Uniform{N: sf.Endpoints()})
	if adv <= uni {
		t.Errorf("worst-case max util %v <= uniform %v", adv, uni)
	}
}

func TestVAL3PathsShorter(t *testing.T) {
	sf := slimfly.MustNew(5)
	tb := route.Build(sf.Graph())
	mk := func(a Algo) Result {
		s, err := New(Config{
			Topo: sf, Router: tb, Algo: a, Pattern: traffic.Uniform{N: sf.Endpoints()},
			Load: 0.1, Warmup: 300, Measure: 900, Drain: 5000, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s.Run()
	}
	v4, v3 := mk(VAL{}), mk(VAL3{})
	if v3.AvgHops >= v4.AvgHops {
		t.Errorf("VAL3 hops %v >= VAL %v; constraint should shorten paths", v3.AvgHops, v4.AvgHops)
	}
	if v3.AvgHops > 3.01 {
		t.Errorf("VAL3 avg hops %v > 3", v3.AvgHops)
	}
}

// TestResultUndrained covers Result aggregation when the simulation ends
// with measured packets still in flight -- the drain window is too short
// to empty the network, a state the allocator's delivery reordering
// must not miscount. Pinned: Saturated set, the drained/undrained split
// (Delivered + in-flight == Injected, with Injected fixed by the injection
// window regardless of drain length), window throughput independent of
// the drain budget, and latency aggregates computed over delivered
// packets only.
func TestResultUndrained(t *testing.T) {
	sf := slimfly.MustNew(5)
	tb := route.Build(sf.Graph())
	base := Config{
		Topo: sf, Router: tb, Algo: MIN{}, Pattern: traffic.Uniform{N: sf.Endpoints()},
		Load: 0.9, Warmup: 200, Measure: 600, Seed: 11,
	}
	run := func(drain int) Result {
		cfg := base
		cfg.Drain = drain
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s.Run()
	}

	undrained := run(1)   // one drain cycle: packets must remain in flight
	drained := run(20000) // full drain for the same injection window

	if !undrained.Saturated {
		t.Fatal("1-cycle drain reported fully drained")
	}
	if undrained.Delivered >= undrained.Injected {
		t.Errorf("undrained run delivered %d of %d injected; expected a shortfall",
			undrained.Delivered, undrained.Injected)
	}
	if undrained.TotalCycles != int64(base.Warmup+base.Measure+1) {
		t.Errorf("TotalCycles = %d, want warmup+measure+drain = %d",
			undrained.TotalCycles, base.Warmup+base.Measure+1)
	}
	if drained.Saturated {
		t.Error("20000-cycle drain still saturated at load 0.9 on q=5")
	}
	// The injection window is identical (drain cycles never inject), so
	// the drained run accounts for every measured packet the undrained
	// run lost track of.
	if drained.Injected != undrained.Injected {
		t.Errorf("Injected differs with drain length: %d vs %d", drained.Injected, undrained.Injected)
	}
	if drained.Delivered != drained.Injected {
		t.Errorf("drained run delivered %d of %d", drained.Delivered, drained.Injected)
	}
	// Accepted counts measurement-window deliveries only; the drain
	// budget happens after the window and must not change it.
	if drained.Accepted != undrained.Accepted {
		t.Errorf("window throughput depends on drain length: %v vs %v", drained.Accepted, undrained.Accepted)
	}
	// Latency aggregates are over delivered packets only; undrained runs
	// lose the slowest packets, so their averages cannot exceed the
	// drained run's and must stay internally consistent.
	if undrained.Delivered > 0 && undrained.AvgLatency <= 0 {
		t.Error("undrained run has deliveries but no average latency")
	}
	if undrained.AvgLatency > float64(undrained.MaxLatency) {
		t.Errorf("avg latency %v exceeds max %v", undrained.AvgLatency, undrained.MaxLatency)
	}
	if undrained.AvgLatency > drained.AvgLatency {
		t.Errorf("undrained avg latency %v exceeds drained %v (lost packets are the slowest)",
			undrained.AvgLatency, drained.AvgLatency)
	}
}
