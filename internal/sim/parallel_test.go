package sim

import (
	"fmt"
	"testing"

	"slimfly/internal/metrics"
	"slimfly/internal/route"
	"slimfly/internal/topo"
	"slimfly/internal/topo/fattree"
	"slimfly/internal/topo/random"
	"slimfly/internal/topo/slimfly"
	"slimfly/internal/traffic"
)

// runAt builds and runs cfg with the given worker count.
func runAt(t *testing.T, cfg Config, workers int) Result {
	t.Helper()
	cfg.Workers = workers
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s.Run()
}

// TestCrossWorkerDeterminism is the determinism half of the parity wall:
// the same seed must produce identical Results whatever the worker count
// and whatever order the runs execute in. Each worker count runs twice --
// once in ascending and once in descending sweep order, with the OS free
// to schedule the decide goroutines differently every time -- and every
// Result must equal the inline single-shard one, for a static-port algorithm under
// congestion (UGAL-L) and for an adaptive RNG-drawing one (ANCA).
func TestCrossWorkerDeterminism(t *testing.T) {
	sf := slimfly.MustNew(5)
	ft := fattree.MustNew(4)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"UGAL-L", Config{
			Topo: sf, Router: route.Build(sf.Graph()), Algo: UGALL{},
			Pattern: traffic.Uniform{N: sf.Endpoints()},
			Load:    0.6, Warmup: 200, Measure: 500, Drain: 6000, Seed: 99,
		}},
		{"ANCA", Config{
			Topo: ft, Router: route.Build(ft.Graph()), Algo: FTANCA{FT: ft},
			Pattern: traffic.Uniform{N: ft.Endpoints()},
			Load:    0.5, Warmup: 200, Measure: 500, Drain: 6000, Seed: 99,
		}},
	}
	workerCounts := []int{0, 1, 2, 3, 5, 8}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			want := runAt(t, c.cfg, 0)
			// Ascending then descending: the second pass reorders run
			// scheduling relative to the first, so any dependence on
			// execution order (not just worker count) shows up too.
			for pass := 0; pass < 2; pass++ {
				for i := range workerCounts {
					w := workerCounts[i]
					if pass == 1 {
						w = workerCounts[len(workerCounts)-1-i]
					}
					if got := runAt(t, c.cfg, w); got != want {
						t.Fatalf("Workers=%d (pass %d) diverged:\n got  %#v\n want %#v", w, pass, got, want)
					}
				}
			}
		})
	}
}

// TestParallelShardBoundaries exercises the shard partitioner's edge
// cases: a prime router count (53, indivisible by any worker count, so
// every shard split is uneven), worker counts equal to and exceeding the
// router count (clamped to one router per shard), and a worker count just
// below the router count. All must match the single-shard result exactly.
func TestParallelShardBoundaries(t *testing.T) {
	dln := random.MustNew(53, 3, 2, 7) // 53 routers: prime
	sf := slimfly.MustNew(5)           // 50 routers
	cases := []struct {
		name    string
		tp      topo.Topology
		workers []int
	}{
		{"DLN-prime53", dln, []int{2, 3, 4, 7, 13, 52, 53, 64}},
		{"SF50", sf, []int{7, 49, 50, 128}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				Topo: c.tp, Router: route.Build(c.tp.Graph()), Algo: MIN{},
				Pattern: traffic.Uniform{N: c.tp.Endpoints()},
				Load:    0.4, Warmup: 100, Measure: 300, Drain: 4000, Seed: 5,
			}
			want := runAt(t, cfg, 0)
			for _, w := range c.workers {
				if got := runAt(t, cfg, w); got != want {
					t.Fatalf("Workers=%d diverged on %d routers:\n got  %#v\n want %#v",
						w, c.tp.Routers(), got, want)
				}
			}
		})
	}
}

// TestParallelRunSummary pins that distribution data (latency histogram,
// per-channel flit counts) survives the decide/commit split across shards:
// percentiles and channel utilisation must be identical to the inline
// schedule's, not just the aggregate Result.
func TestParallelRunSummary(t *testing.T) {
	sf := slimfly.MustNew(5)
	tb := route.Build(sf.Graph())
	mk := func(workers int) (Result, *metrics.Summary) {
		res, sum, err := RunSummary(Config{
			Topo: sf, Router: tb, Algo: MIN{}, Pattern: traffic.Uniform{N: sf.Endpoints()},
			Load: 0.3, Warmup: 300, Measure: 900, Drain: 6000, Seed: 3, Workers: workers,
			Metrics: "latency,channels",
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, sum
	}
	wantRes, want := mk(0)
	gotRes, got := mk(3)
	if wantRes != gotRes {
		t.Fatalf("parallel Result diverged:\n got  %#v\n want %#v", gotRes, wantRes)
	}
	if w, g := want.Latency, got.Latency; w.P50 != g.P50 || w.P95 != g.P95 || w.P99 != g.P99 {
		t.Errorf("percentiles diverged: got %v/%v/%v want %v/%v/%v", g.P50, g.P95, g.P99, w.P50, w.P95, w.P99)
	}
	if want.Channels.MaxUtil != got.Channels.MaxUtil {
		t.Errorf("max channel util diverged: got %v want %v", got.Channels.MaxUtil, want.Channels.MaxUtil)
	}
}

// TestNegativeWorkersRejected pins the configuration validation.
func TestNegativeWorkersRejected(t *testing.T) {
	sf := slimfly.MustNew(5)
	_, err := New(Config{
		Topo: sf, Router: route.Build(sf.Graph()), Algo: MIN{},
		Pattern: traffic.Uniform{N: sf.Endpoints()}, Load: 0.1, Workers: -1,
	})
	if err == nil {
		t.Fatal("negative Workers accepted")
	}
}

// TestCloseIdempotent pins the worker-pool lifecycle: Close on a
// single-shard sim is a no-op, Close twice is safe, and a closed
// multi-shard sim restarts its pool on the next step.
func TestCloseIdempotent(t *testing.T) {
	s := newSteadySim(t, 5, 50, MIN{}, 3, "")
	s.Close()
	s.Close()
	s.step(true) // relaunches the pool
	s.cycle++
	s.Close()

	inline := newSteadySim(t, 5, 50, MIN{}, 0, "")
	inline.Close() // no-op
	_ = fmt.Sprint(inline.cycle)
}
