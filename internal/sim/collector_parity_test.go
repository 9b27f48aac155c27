package sim

import (
	"encoding/json"
	"testing"

	"slimfly/internal/metrics"
	"slimfly/internal/route"
	"slimfly/internal/topo/random"
	"slimfly/internal/traffic"
)

// allCollectors is the full stock set, attached by name exactly as a
// sweep spec or -metrics flag would. It includes the sampled packet
// trace, so every parity test below also pins that the traced event
// stream is byte-identical across worker counts (deterministic id
// sampling + canonical sort; the golden scenarios stay far below the
// ring capacity, so no events are dropped).
const allCollectors = "latency,channels,series,fairness,trace"

// TestCollectorParityParallel is the metrics half of the parity wall:
// on every golden scenario, the full stock collector set must produce a
// byte-identical JSON summary at Workers 1, 2, 3 and 8 (per-shard
// instances folded by Merge) as at Workers 0 (a single instance observing
// everything) -- and attaching collectors must not perturb Result itself.
// This is the "shard-merge determinism" contract of internal/metrics: the
// engine partitions observations by router shard, and every stock
// collector's state folds with exact integer arithmetic.
func TestCollectorParityParallel(t *testing.T) {
	for _, c := range goldenCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			run := func(workers int) (Result, string) {
				cfg := goldenConfig(c, workers)
				cfg.Metrics = allCollectors
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res := s.Run()
				data, err := json.Marshal(s.MetricsSummary())
				if err != nil {
					t.Fatal(err)
				}
				return res, string(data)
			}
			wantRes, wantSum := run(0)
			if wantRes != c.want {
				t.Fatalf("attaching collectors changed Result:\n got  %#v\n want %#v", wantRes, c.want)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				gotRes, gotSum := run(workers)
				if gotRes != c.want {
					t.Errorf("Workers=%d Result diverged with collectors attached:\n got  %#v\n want %#v",
						workers, gotRes, c.want)
				}
				if gotSum != wantSum {
					t.Errorf("Workers=%d summary diverged from Workers=0:\n got  %s\n want %s",
						workers, gotSum, wantSum)
				}
			}
		})
	}
}

// TestMetricsSummaryContents sanity-checks the summary against the
// aggregate Result on one golden scenario: same delivery population, same
// extrema, channel counts matching forwarded hops.
func TestMetricsSummaryContents(t *testing.T) {
	c := goldenCases(t)[0] // MIN on SF q=5
	cfg := goldenConfig(c, 0)
	cfg.Metrics = allCollectors
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	sum := s.MetricsSummary()
	if sum == nil || sum.Latency == nil || sum.Channels == nil || sum.Series == nil || sum.Fairness == nil {
		t.Fatalf("missing summary sections: %+v", sum)
	}
	if sum.Latency.Count != res.Delivered {
		t.Errorf("histogram count %d != delivered %d", sum.Latency.Count, res.Delivered)
	}
	if sum.Latency.Max != res.MaxLatency {
		t.Errorf("histogram max %d != MaxLatency %d", sum.Latency.Max, res.MaxLatency)
	}
	if sum.Latency.Mean != res.AvgLatency {
		t.Errorf("histogram mean %v != AvgLatency %v", sum.Latency.Mean, res.AvgLatency)
	}
	if !(sum.Latency.P50 <= sum.Latency.P95 && sum.Latency.P95 <= sum.Latency.P99) {
		t.Errorf("percentiles out of order: %v/%v/%v", sum.Latency.P50, sum.Latency.P95, sum.Latency.P99)
	}
	if sum.Channels.MaxUtil <= 0 || sum.Channels.MaxUtil > 1.0001 {
		t.Errorf("max channel util = %v", sum.Channels.MaxUtil)
	}
	if sum.Channels.Loaded == 0 || sum.Channels.Loaded > sum.Channels.Total {
		t.Errorf("loaded/total = %d/%d", sum.Channels.Loaded, sum.Channels.Total)
	}
	// Every measured injection lands in the series (injections only occur
	// inside the window).
	var inj int64
	for _, n := range sum.Series.Injected {
		inj += n
	}
	if inj != res.Injected {
		t.Errorf("series injected %d != Result.Injected %d", inj, res.Injected)
	}
	if sum.Fairness.Active != res.ActiveEnds {
		// Uniform traffic at load 0.3 over 800 cycles: every endpoint
		// injects with overwhelming probability; allow slack of a few.
		if res.ActiveEnds-sum.Fairness.Active > 3 {
			t.Errorf("fairness active %d far below active endpoints %d", sum.Fairness.Active, res.ActiveEnds)
		}
	}
	if sum.Fairness.Jain <= 0 || sum.Fairness.Jain > 1 {
		t.Errorf("jain = %v", sum.Fairness.Jain)
	}
	// A second MetricsSummary call must not re-merge (idempotence).
	again := s.MetricsSummary()
	if again.Latency.Count != sum.Latency.Count {
		t.Errorf("second MetricsSummary drifted: %d != %d", again.Latency.Count, sum.Latency.Count)
	}
}

// TestRunSummary pins the one-call entry point and the unknown-collector
// error path.
func TestRunSummary(t *testing.T) {
	c := goldenCases(t)[0]
	cfg := goldenConfig(c, 0)
	cfg.Metrics = "latency"
	res, sum, err := RunSummary(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res != c.want {
		t.Errorf("RunSummary result drifted from golden")
	}
	if sum == nil || sum.Latency == nil || sum.Channels != nil {
		t.Fatalf("summary sections wrong for latency-only selection: %+v", sum)
	}

	cfg.Metrics = "latency,bogus"
	if _, _, err := RunSummary(cfg); err == nil {
		t.Fatal("unknown collector name accepted")
	} else if _, ok := err.(*metrics.UnknownError); !ok {
		t.Errorf("error type %T, want *metrics.UnknownError", err)
	}

	cfg.Metrics = ""
	_, sum, err = RunSummary(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum != nil {
		t.Errorf("empty selection produced a summary: %+v", sum)
	}
}

// TestCollectorParityUndrained covers summaries when the run ends
// saturated: drain deliveries past the window must still enter the
// histogram (the AvgLatency population) while the series ignores them,
// identically at every shard count.
func TestCollectorParityUndrained(t *testing.T) {
	c := goldenCases(t)[0]
	run := func(workers int) string {
		cfg := goldenConfig(c, workers)
		cfg.Load, cfg.Drain = 0.9, 1
		cfg.Metrics = allCollectors
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run()
		if !res.Saturated {
			t.Fatal("expected a saturated run")
		}
		data, err := json.Marshal(s.MetricsSummary())
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	want := run(0)
	for _, w := range []int{2, 3} {
		if got := run(w); got != want {
			t.Errorf("Workers=%d undrained summary diverged:\n got  %s\n want %s", w, got, want)
		}
	}
}

// TestCollectorShardBoundaries reruns the summary parity on the prime
// 53-router DLN whose shard splits are always uneven (the same geometry
// TestParallelShardBoundaries uses for Result parity), including worker
// counts at and above the router count -- the colOf routing table's edge
// cases.
func TestCollectorShardBoundaries(t *testing.T) {
	dln := random.MustNew(53, 3, 2, 7)
	tb := route.Build(dln.Graph())
	run := func(workers int) string {
		s, err := New(Config{
			Topo: dln, Router: tb, Algo: MIN{},
			Pattern: traffic.Uniform{N: dln.Endpoints()},
			Load:    0.4, Warmup: 100, Measure: 300, Drain: 4000, Seed: 5,
			Workers: workers, Metrics: allCollectors,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Run()
		data, err := json.Marshal(s.MetricsSummary())
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	want := run(0)
	for _, w := range []int{2, 7, 13, 52, 53, 64} {
		if got := run(w); got != want {
			t.Errorf("Workers=%d (prime shard boundary) summary diverged", w)
		}
	}
}
