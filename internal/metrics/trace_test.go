package metrics

import (
	"encoding/json"
	"testing"
)

func TestTraceSamplingDeterministic(t *testing.T) {
	a := NewTrace(DefaultTraceShift, 16)
	b := NewTrace(DefaultTraceShift, 16)
	sampled := 0
	const n = 1 << 16
	for id := uint64(0); id < n; id++ {
		if a.Sampled(id) != b.Sampled(id) {
			t.Fatalf("sampling not deterministic at id %d", id)
		}
		if a.Sampled(id) {
			sampled++
		}
	}
	// 1-in-1024 over 65536 structured ids: expect ~64, allow wide slack --
	// the point is unbiasedness despite sequential ids, not exact rate.
	if sampled < 16 || sampled > 256 {
		t.Errorf("sampled %d of %d ids at 1-in-1024", sampled, n)
	}
	every := NewTrace(0, 16)
	for id := uint64(0); id < 100; id++ {
		if !every.Sampled(id) {
			t.Fatalf("shift 0 skipped id %d", id)
		}
	}
}

func TestTraceRingOverwrite(t *testing.T) {
	tr := NewTrace(0, 4)
	tr.Attach(testMeta())
	for i := 0; i < 10; i++ {
		tr.PacketInject(uint64(i), 1, 2, TagMinimal, int64(i))
	}
	var sum Summary
	tr.Summarize(&sum)
	st := sum.Trace
	if st.Recorded != 10 || st.Dropped != 6 || len(st.Events) != 4 {
		t.Fatalf("recorded/dropped/kept = %d/%d/%d, want 10/6/4", st.Recorded, st.Dropped, len(st.Events))
	}
	for i, e := range st.Events {
		if want := int64(6 + i); e.Cycle != want {
			t.Errorf("survivor %d cycle = %d, want %d (oldest-first tail)", i, e.Cycle, want)
		}
	}
}

// TestTraceSummaryCanonical pins the summary's event order: whatever order
// events were recorded in, Summarize lists them by cycle, then id, then kind.
func TestTraceSummaryCanonical(t *testing.T) {
	tr := NewTrace(0, 64)
	tr.Attach(testMeta())
	tr.PacketDeliver(1, 2, 1, 1, 2)
	tr.PacketHop(1, 2, 0, 0, 2)
	for _, e := range []struct {
		id    uint64
		cycle int64
	}{{5, 3}, {1, 1}, {9, 3}, {7, 1}, {2, 4}} {
		tr.PacketInject(e.id, 1, 2, TagMinimal, e.cycle)
	}
	var sum Summary
	tr.Summarize(&sum)
	evs := sum.Trace.Events
	if len(evs) != 7 {
		t.Fatalf("events = %d, want 7", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		p, c := evs[i-1], evs[i]
		if p.Cycle > c.Cycle || (p.Cycle == c.Cycle && (p.ID > c.ID || (p.ID == c.ID && p.Kind >= c.Kind))) {
			t.Fatalf("events not in canonical order: %+v before %+v", p, c)
		}
	}
}

func TestTracePaths(t *testing.T) {
	tr := NewTrace(0, 64)
	tr.Attach(testMeta())
	id := pktIDFor(3, 20)
	tr.PacketInject(id, 6, 1, TagValiant, 20)
	tr.PacketHop(id, 1, 2, 0, 21)
	tr.PacketHop(id, 2, 0, 1, 23)
	tr.PacketDeliver(id, 3, 2, 5, 25)
	// A second packet missing its deliver event.
	id2 := pktIDFor(4, 22)
	tr.PacketInject(id2, 7, 2, TagMinimal, 22)
	tr.PacketHop(id2, 2, 1, 0, 24)

	var sum Summary
	tr.Summarize(&sum)
	paths := sum.Trace.Paths()
	if len(paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(paths))
	}
	p := paths[0]
	if p.ID != id || p.Src != 3 || p.Dst != 6 || p.Tag != TagValiant ||
		p.Injected != 20 || p.Delivered != 25 || p.Latency != 5 || !p.Complete {
		t.Errorf("reconstructed path = %+v", p)
	}
	if len(p.Hops) != 2 || p.Hops[0] != (TraceHopStep{Router: 1, Port: 2, VC: 0, Cycle: 21}) ||
		p.Hops[1] != (TraceHopStep{Router: 2, Port: 0, VC: 1, Cycle: 23}) {
		t.Errorf("reconstructed hops = %+v", p.Hops)
	}
	if q := paths[1]; q.Complete || q.Delivered != -1 || q.Injected != 22 {
		t.Errorf("in-flight packet reconstructed as %+v", q)
	}
}

func pktIDFor(src, birth int32) uint64 {
	return uint64(uint32(src))<<32 | uint64(uint32(birth))
}

func TestTraceEventJSON(t *testing.T) {
	e := TraceEvent{ID: pktIDFor(3, 20), Cycle: 21, Kind: TraceHop, Router: 1, Port: 2, VC: 1, Dst: -1, Hops: -1}
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var back TraceEvent
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != e {
		t.Errorf("round trip: %+v != %+v", back, e)
	}
	if e.Src() != 3 || e.Birth() != 20 {
		t.Errorf("id unpacking: src %d birth %d", e.Src(), e.Birth())
	}
	var probe struct {
		Kind string `json:"kind"`
		Tag  string `json:"tag"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		t.Fatal(err)
	}
	if probe.Kind != "hop" || probe.Tag != "min" {
		t.Errorf("readable names: kind %q tag %q", probe.Kind, probe.Tag)
	}
	if err := json.Unmarshal([]byte(`{"kind":"bogus"}`), &back); err == nil {
		t.Error("bogus kind accepted")
	}
}

func TestTraceRegistered(t *testing.T) {
	c, err := New("trace")
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := c.(*Trace)
	if !ok {
		t.Fatalf("registry returned %T", c)
	}
	var sum Summary
	tr.Attach(testMeta())
	tr.Summarize(&sum)
	if sum.Trace.SampleEvery != 1<<DefaultTraceShift || sum.Trace.Capacity != DefaultTraceCap {
		t.Errorf("registry defaults: %+v", sum.Trace)
	}
}
