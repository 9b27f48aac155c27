package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"slimfly/internal/metrics"
	"slimfly/internal/route"
	"slimfly/internal/topo/slimfly"
	"slimfly/internal/traffic"
)

// traceConfig is a small SlimFly run used by the structural trace tests:
// low enough load to drain fully, short enough to trace every packet
// without ring wrap at full sampling.
func traceConfig(algo Algo) Config {
	sf := slimfly.MustNew(5)
	rt := route.Build(sf.Graph())
	return Config{
		Topo: sf, Router: rt, Algo: algo,
		Pattern: traffic.Uniform{N: sf.Endpoints()},
		Load:    0.3, Warmup: 50, Measure: 200, Drain: 8000, Seed: 7,
	}
}

// runTraced runs cfg with an explicit trace collector and returns the
// result and the trace section.
func runTraced(t *testing.T, cfg Config, shift uint, capacity int) (Result, *metrics.TraceStats) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.initMetrics(metrics.SetOf(metrics.NewTrace(shift, capacity)))
	res := s.Run()
	sum := s.MetricsSummary()
	if sum == nil || sum.Trace == nil {
		t.Fatal("no trace section in summary")
	}
	return res, sum.Trace
}

// TestTraceFullSampling runs with the sampling shift at 0 (trace every
// packet) and checks the stream structurally: every delivered packet
// appears as a complete inject -> hops -> deliver journey with
// consistent cycles, hop counts and identities.
func TestTraceFullSampling(t *testing.T) {
	cfg := traceConfig(MIN{})
	res, st := runTraced(t, cfg, 0, 1<<17)
	if res.Saturated {
		t.Fatal("trace config saturated; structural checks need a drained run")
	}
	if st.Dropped != 0 {
		t.Fatalf("full-sampling run overflowed the ring: dropped %d (recorded %d)", st.Dropped, st.Recorded)
	}
	if int64(len(st.Events)) != st.Recorded {
		t.Fatalf("events %d != recorded %d with no drops", len(st.Events), st.Recorded)
	}
	if int64(st.Packets) != res.Delivered {
		t.Fatalf("traced packets %d != delivered %d at full sampling", st.Packets, res.Delivered)
	}

	// Per-packet consistency straight off the canonical stream.
	hops := make(map[uint64]int32)
	injected := make(map[uint64]bool)
	ends := cfg.Topo.Endpoints()
	for _, e := range st.Events {
		if src := e.Src(); src < 0 || int(src) >= ends {
			t.Fatalf("event id packs bad source %d: %+v", src, e)
		}
		switch e.Kind {
		case metrics.TraceInject:
			if injected[e.ID] {
				t.Fatalf("packet %x injected twice", e.ID)
			}
			injected[e.ID] = true
			if e.Cycle != e.Birth() {
				t.Fatalf("inject cycle %d != birth %d", e.Cycle, e.Birth())
			}
			if e.Tag != metrics.TagMinimal {
				t.Fatalf("MIN run produced a %v-tagged packet", e.Tag)
			}
		case metrics.TraceHop:
			if !injected[e.ID] {
				t.Fatalf("hop before inject for packet %x", e.ID)
			}
			hops[e.ID]++
			if e.VC < 0 {
				t.Fatalf("hop VC out of range: %+v", e)
			}
		case metrics.TraceDeliver:
			if !injected[e.ID] {
				t.Fatalf("deliver before inject for packet %x", e.ID)
			}
			if e.Hops != hops[e.ID] {
				t.Fatalf("deliver hops %d != observed hop events %d for packet %x", e.Hops, hops[e.ID], e.ID)
			}
			if e.Latency != e.Cycle-e.Birth() {
				t.Fatalf("deliver latency %d != cycle %d - birth %d", e.Latency, e.Cycle, e.Birth())
			}
		}
	}

	paths := st.Paths()
	if len(paths) != st.Packets {
		t.Fatalf("paths %d != packets %d", len(paths), st.Packets)
	}
	for _, p := range paths {
		if !p.Complete {
			t.Fatalf("incomplete path in a drained full-sampling run: %+v", p)
		}
		if p.Latency != p.Delivered-p.Injected {
			t.Fatalf("path latency inconsistent: %+v", p)
		}
		last := p.Injected
		for _, h := range p.Hops {
			if h.Cycle < last {
				t.Fatalf("hop cycles regress: %+v", p)
			}
			last = h.Cycle
		}
		if p.Delivered < last {
			t.Fatalf("delivered before last hop: %+v", p)
		}
	}
}

// TestTraceSampling pins the sampling contract: the packets traced at
// the default 1-in-1024 rate are exactly the full-sampling packet set
// filtered through Trace.Sampled -- same run, same ids, nothing extra
// and nothing missed.
func TestTraceSampling(t *testing.T) {
	cfg := traceConfig(MIN{})
	_, full := runTraced(t, cfg, 0, 1<<17)
	_, def := runTraced(t, cfg, metrics.DefaultTraceShift, 1<<17)
	if def.SampleEvery != 1<<metrics.DefaultTraceShift {
		t.Fatalf("sample_every = %d", def.SampleEvery)
	}

	probe := metrics.NewTrace(metrics.DefaultTraceShift, 1)
	want := make(map[uint64]bool)
	for _, e := range full.Events {
		if e.Kind == metrics.TraceInject && probe.Sampled(e.ID) {
			want[e.ID] = true
		}
	}
	got := make(map[uint64]bool)
	for _, e := range def.Events {
		got[e.ID] = true
		if !probe.Sampled(e.ID) {
			t.Fatalf("unsampled id %x in default-rate stream", e.ID)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("default-rate stream traced %d packets, want %d", len(got), len(want))
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("sampled packet %x missing from default-rate stream", id)
		}
	}
	if len(want) == 0 {
		t.Fatal("no packets sampled at the default rate; config too small for the test to mean anything")
	}
}

// TestTraceValiantTags pins the decision tag on an algorithm that
// commits to indirect routes at injection: a VAL run must tag
// (essentially) every packet valiant, and a UGAL-L run must produce a
// mix once load pushes some picks non-minimal.
func TestTraceValiantTags(t *testing.T) {
	count := func(algo Algo, load float64) (minTag, valTag int) {
		cfg := traceConfig(algo)
		cfg.Load = load
		_, st := runTraced(t, cfg, 0, 1<<18)
		for _, e := range st.Events {
			if e.Kind != metrics.TraceInject {
				continue
			}
			if e.Tag == metrics.TagValiant {
				valTag++
			} else {
				minTag++
			}
		}
		return
	}
	if minTag, valTag := count(VAL{}, 0.3); valTag == 0 || minTag > valTag {
		// Only self-router traffic degenerates to minimal under VAL.
		t.Errorf("VAL tags: %d min, %d val", minTag, valTag)
	}
	if minTag, valTag := count(UGALL{}, 0.6); minTag == 0 || valTag == 0 {
		t.Errorf("UGAL-L at load 0.6 produced no tag mix: %d min, %d val", minTag, valTag)
	}
}

// TestTraceRingBounds pins the overwrite-oldest semantics end to end: a
// tiny ring must cap the event count, count drops, and keep the newest
// events.
func TestTraceRingBounds(t *testing.T) {
	cfg := traceConfig(MIN{})
	const capEvents = 256
	_, st := runTraced(t, cfg, 0, capEvents)
	if st.Dropped == 0 || len(st.Events) != capEvents {
		t.Fatalf("tiny ring did not wrap: %d events, %d dropped", len(st.Events), st.Dropped)
	}
	if st.Recorded != int64(capEvents)+st.Dropped {
		t.Fatalf("recorded %d != kept %d + dropped %d", st.Recorded, capEvents, st.Dropped)
	}
	// The survivors are the newest events offered. Record order within a
	// cycle differs from the canonical sort, so compare as sets: every
	// survivor exists in the full stream, and everything from cycles
	// strictly after the oldest surviving cycle must have survived.
	_, full := runTraced(t, cfg, 0, 1<<17)
	minCycle := st.Events[0].Cycle
	fullCount := make(map[metrics.TraceEvent]int)
	for _, e := range full.Events {
		fullCount[e]++
	}
	var after int
	for _, e := range full.Events {
		if e.Cycle > minCycle {
			after++
		}
	}
	var kept int
	for _, e := range st.Events {
		if fullCount[e] == 0 {
			t.Fatalf("ring survivor %+v not in the full stream", e)
		}
		fullCount[e]--
		if e.Cycle > minCycle {
			kept++
		}
	}
	if kept != after {
		t.Fatalf("events after boundary cycle %d: %d survived, full stream has %d", minCycle, kept, after)
	}
}

// traceOverflowWant is the SHA-256 of the TraceStats JSON of
// traceConfig(MIN{}) traced at full sampling into a 256-slot ring (46 372
// events recorded, 256 kept), recorded on the last commit that gave every
// shard its own ring.
const traceOverflowWant = "d9111195f2aaed91c8342038bf7ccf8f3e8dc5976dd698031ab28a6197a4edef"

// TestTraceOverflowParity covers the stock collector whose summary depends
// on hook-call order: a trace ring that wraps keeps the newest Capacity
// events in the order they were offered. A tiny full-sampling ring must
// match the pinned hash, and the registry's "trace" on a run long enough to
// overflow its 16 384 slots must give one TraceStats on two runs.
func TestTraceOverflowParity(t *testing.T) {
	// overflowed returns st's JSON after checking the ring wrapped.
	overflowed := func(t *testing.T, st *metrics.TraceStats) []byte {
		if st.Dropped == 0 || len(st.Events) > st.Capacity {
			t.Fatalf("%d events kept, %d dropped, capacity %d: want an overflowed ring within capacity",
				len(st.Events), st.Dropped, st.Capacity)
		}
		data, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	t.Run("ring256", func(t *testing.T) {
		_, st := runTraced(t, traceConfig(MIN{}), 0, 256)
		sum := sha256.Sum256(overflowed(t, st))
		if got := hex.EncodeToString(sum[:]); got != traceOverflowWant {
			t.Errorf("overflowing trace drifted: sha256 %s, want %s", got, traceOverflowWant)
		}
	})
	t.Run("registry", func(t *testing.T) {
		t.Parallel()
		// ~4.7M measured packets: 17 531 sampled events at 1 in 1024.
		sf := slimfly.MustNew(7)
		rt := route.Build(sf.Graph())
		run := func() []byte {
			_, sum, err := RunSummary(Config{
				Topo: sf, Router: rt, Algo: MIN{},
				Pattern: traffic.Uniform{N: sf.Endpoints()},
				Load:    0.8, Warmup: 100, Measure: 10000, Seed: 1,
				Metrics: "trace",
			})
			if err != nil {
				t.Fatal(err)
			}
			return overflowed(t, sum.Trace)
		}
		if want, got := run(), run(); !bytes.Equal(got, want) {
			t.Error("second run's overflowing trace diverged")
		}
	})
}
