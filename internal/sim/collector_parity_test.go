package sim

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"slimfly/internal/metrics"
)

// allCollectors is the full stock set, attached by name exactly as a
// sweep spec or -metrics flag would. It includes the sampled packet
// trace, so every parity test below also pins that the traced event
// stream is byte-identical from run to run.
const allCollectors = "latency,channels,series,fairness,trace"

// stockWith is the stock collectors named by spec, each built by
// metrics.New as NewSet builds them, followed by extra.
func stockWith(t testing.TB, spec string, extra metrics.Collector) *metrics.Set {
	var cs []metrics.Collector
	for _, name := range metrics.ParseNames(spec) {
		c, err := metrics.New(name)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	return metrics.SetOf(append(cs, extra)...)
}

// hookHash is an order-sensitive collector: a running FNV-1a hash over
// every hook call and its arguments, in call order. Two runs agree on it
// only if the engine made the same calls in the same sequence.
type hookHash struct{ h uint64 }

func (c *hookHash) mix(vs ...int64) {
	for _, v := range vs {
		c.h = (c.h ^ uint64(v)) * 1099511628211
	}
}

func (c *hookHash) Name() string               { return "hookhash" }
func (c *hookHash) Attach(metrics.Meta)        { c.h = 14695981039346656037 }
func (c *hookHash) Summarize(*metrics.Summary) {}

func (c *hookHash) Inject(src int32, cycle int64) { c.mix(1, int64(src), cycle) }
func (c *hookHash) Hop(router, port int32, cycle int64) {
	c.mix(2, int64(router), int64(port), cycle)
}
func (c *hookHash) Deliver(src, hops int32, latency, cycle int64) {
	c.mix(3, int64(src), int64(hops), latency, cycle)
}
func (c *hookHash) PacketInject(id uint64, dst, router int32, tag metrics.TraceTag, cycle int64) {
	c.mix(5, int64(id), int64(dst), int64(router), int64(tag), cycle)
}
func (c *hookHash) PacketHop(id uint64, router, port int32, vc int8, cycle int64) {
	c.mix(6, int64(id), int64(router), int64(port), int64(vc), cycle)
}
func (c *hookHash) PacketDeliver(id uint64, router, hops int32, latency, cycle int64) {
	c.mix(7, int64(id), int64(router), int64(hops), latency, cycle)
}

// TestCollectorParityParallel is the metrics half of the parity wall:
// on every golden scenario, the full stock collector set must produce a
// byte-identical JSON summary on a second run, and attaching collectors
// must not perturb Result itself. The hookHash riding along pins the
// stronger property the stock summaries rest on: the engine makes the same
// hook calls in the same order every run, not merely the same multiset of
// them.
func TestCollectorParityParallel(t *testing.T) {
	for _, c := range goldenCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			run := func() (Result, string) {
				s, err := New(goldenConfig(c))
				if err != nil {
					t.Fatal(err)
				}
				seq := &hookHash{}
				s.initMetrics(stockWith(t, allCollectors, seq))
				res := s.Run()
				data, err := json.Marshal(s.MetricsSummary())
				if err != nil {
					t.Fatal(err)
				}
				return res, fmt.Sprintf("%s hooks=%016x", data, seq.h)
			}
			wantRes, wantSum := run()
			if wantRes != c.want {
				t.Fatalf("attaching collectors changed Result:\n got  %#v\n want %#v", wantRes, c.want)
			}
			if _, gotSum := run(); gotSum != wantSum {
				t.Errorf("second run's summary diverged:\n got  %s\n want %s", gotSum, wantSum)
			}
		})
	}
}

// hopLog records every Hop call as (router, port, cycle).
type hopLog struct{ calls [][3]int64 }

func (c *hopLog) Name() string               { return "hoplog" }
func (c *hopLog) Attach(metrics.Meta)        { c.calls = nil }
func (c *hopLog) Summarize(*metrics.Summary) {}
func (c *hopLog) Hop(router, port int32, cycle int64) {
	c.calls = append(c.calls, [3]int64{int64(router), int64(port), cycle})
}

// TestHopDeparturesPinned pins which link departures the engine reports, not
// when in a cycle it reports them: on every golden scenario, with the channels
// collector attached, the sorted multiset of Hop(router, port, cycle) calls
// must hash to the recorded value, and every call must carry a cycle inside
// the measurement window. (hookHash in TestCollectorParityParallel pins the
// call order from run to run.)
func TestHopDeparturesPinned(t *testing.T) {
	want := map[string]string{
		"MIN":    "a5885b6e736ace6019583d28953e618db965e9697ee88d8e979d5585517f9cef",
		"VAL":    "942d624bfd561b2824bb6b7edacd4c02cb3a3dbe4b79e865d3ed6619aeced98e",
		"VAL3":   "4b1e50b41ab064a4d21ca122c4275982246dc2b6081569a70e6ec5cd5b10c5cf",
		"UGAL-L": "936a40e8de37a1099948abc41ed5f9680ccb462985c57b7b2d4b5fb945d083eb",
		"UGAL-G": "a1891ddbc3ce35362fd7d35a8e22799b6bbc8587fc4253010449372fff36561c",
		"ANCA":   "f761768375a0845dd474f999542407d11e67753ed4fdf5941618a6fb12af11df",
	}
	for _, c := range goldenCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cfg := goldenConfig(c)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			log := &hopLog{}
			s.initMetrics(stockWith(t, "channels", log))
			s.Run()
			lo, hi := int64(cfg.Warmup), int64(cfg.Warmup+cfg.Measure)
			for _, call := range log.calls {
				if call[2] < lo || call[2] >= hi {
					t.Fatalf("Hop(%d, %d, %d) outside the window [%d, %d)", call[0], call[1], call[2], lo, hi)
				}
			}
			slices.SortFunc(log.calls, func(a, b [3]int64) int {
				for i := range a {
					if a[i] != b[i] {
						return cmp.Compare(a[i], b[i])
					}
				}
				return 0
			})
			h := sha256.New()
			for _, call := range log.calls {
				binary.Write(h, binary.LittleEndian, call)
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != want[c.name] {
				t.Errorf("%d Hop calls hash to %s, want %s", len(log.calls), got, want[c.name])
			}
		})
	}
}

// TestMetricsSummaryContents sanity-checks the summary against the
// aggregate Result on one golden scenario: same delivery population, same
// extrema, channel counts matching forwarded hops.
func TestMetricsSummaryContents(t *testing.T) {
	c := goldenCases(t)[0] // MIN on SF q=5
	cfg := goldenConfig(c)
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
	// MetricsSummary is repeatable.
	again := s.MetricsSummary()
	if again.Latency.Count != sum.Latency.Count {
		t.Errorf("second MetricsSummary drifted: %d != %d", again.Latency.Count, sum.Latency.Count)
	}
}

// TestRunSummary pins the one-call entry point and the unknown-collector
// error path.
func TestRunSummary(t *testing.T) {
	c := goldenCases(t)[0]
	cfg := goldenConfig(c)
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
// identically from run to run.
func TestCollectorParityUndrained(t *testing.T) {
	c := goldenCases(t)[0]
	run := func() string {
		cfg := goldenConfig(c)
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
	if want, got := run(), run(); got != want {
		t.Errorf("second run's undrained summary diverged:\n got  %s\n want %s", got, want)
	}
}
