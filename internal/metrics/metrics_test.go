package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func testMeta() Meta {
	return Meta{
		Routers: 4, Endpoints: 8,
		Degrees: []int32{3, 2, 3, 2},
		NumVCs:  2, Warmup: 10, Measure: 100,
	}
}

// TestHistBucketGeometry pins the histogram's bucket map: exact below the
// sub-bucket base, monotone with bounded relative error above, and
// histLow a true lower-bound inverse.
func TestHistBucketGeometry(t *testing.T) {
	for v := int64(0); v < histBase; v++ {
		if got := histLow(histBucket(v)); got != v {
			t.Fatalf("small value %d not exact: bucket low %d", v, got)
		}
	}
	prev := -1
	for _, v := range []int64{histBase, 100, 1000, 12345, 1 << 20, 1<<31 - 1, math.MaxInt64} {
		idx := histBucket(v)
		if idx < prev {
			t.Errorf("bucket index not monotone at %d", v)
		}
		prev = idx
		if idx >= histBuckets {
			t.Fatalf("value %d maps to bucket %d >= %d", v, idx, histBuckets)
		}
		low := histLow(idx)
		if low > v {
			t.Errorf("histLow(%d) = %d > value %d", idx, low, v)
		}
		if rel := float64(v-low) / float64(v); rel > 1.0/histBase {
			t.Errorf("value %d: relative rounding error %v > %v", v, rel, 1.0/histBase)
		}
	}
}

// TestQuantileNearestRank pins the nearest-rank definition on small exact
// samples -- the regression the old sim percentile picker had: its
// int(p*(n-1)) index truncated, so P95 of {10,20,30,40} answered the 3rd
// value instead of the 4th.
func TestQuantileNearestRank(t *testing.T) {
	h := NewLatencyHist()
	h.Attach(testMeta())
	for _, v := range []int64{10, 20, 30, 40} {
		h.Deliver(0, 1, v, 50)
	}
	cases := []struct {
		p    float64
		want float64
	}{
		{0.25, 10}, {0.50, 20}, {0.75, 30},
		{0.95, 40}, // old formula: index int(0.95*3) = 2 -> 30
		{0.99, 40},
		{1.00, 40},
	}
	for _, c := range cases {
		if got := h.Quantile(c.p); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v (nearest-rank)", c.p, got, c.want)
		}
	}

	// Ten distinct values: nearest-rank P50 of n=10 is the 5th smallest.
	h2 := NewLatencyHist()
	h2.Attach(testMeta())
	for v := int64(1); v <= 10; v++ {
		h2.Deliver(0, 1, v, 50)
	}
	if got := h2.Quantile(0.50); got != 5 {
		t.Errorf("P50 of 1..10 = %v, want 5", got)
	}
	// Single observation: every quantile is that value.
	h3 := NewLatencyHist()
	h3.Attach(testMeta())
	h3.Deliver(0, 1, 7, 50)
	for _, p := range []float64{0.01, 0.5, 0.99} {
		if got := h3.Quantile(p); got != 7 {
			t.Errorf("single-sample Quantile(%v) = %v, want 7", p, got)
		}
	}
}

// TestLatencySummaryStats checks count/min/max/mean and percentile
// ordering on a larger stream.
func TestLatencySummaryStats(t *testing.T) {
	h := NewLatencyHist()
	h.Attach(testMeta())
	rng := rand.New(rand.NewSource(42))
	var sum int64
	const n = 10000
	for i := 0; i < n; i++ {
		v := int64(rng.ExpFloat64() * 200)
		sum += v
		h.Deliver(0, 1, v, 50)
	}
	var s Summary
	h.Summarize(&s)
	st := s.Latency
	if st.Count != n {
		t.Fatalf("count = %d", st.Count)
	}
	if st.Mean != float64(sum)/n {
		t.Errorf("mean = %v, want %v", st.Mean, float64(sum)/n)
	}
	if !(float64(st.Min) <= st.P50 && st.P50 <= st.P95 && st.P95 <= st.P99 && st.P99 <= float64(st.Max)) {
		t.Errorf("quantiles out of order: min=%d p50=%v p95=%v p99=%v max=%d",
			st.Min, st.P50, st.P95, st.P99, st.Max)
	}
}

// observeRandom drives every hook of a set with a deterministic random
// stream; used to exercise merge algebra.
func observeRandom(s *Set, seed int64, n int) {
	m := testMeta()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		cycle := m.Warmup + rng.Int63n(m.Measure)
		src := int32(rng.Intn(m.Endpoints))
		switch rng.Intn(3) {
		case 0:
			s.Inject(src, cycle)
		case 1:
			r := int32(rng.Intn(m.Routers))
			s.Hop(r, int32(rng.Int31n(m.Degrees[r])), cycle)
		default:
			s.Deliver(src, int32(rng.Intn(4)), rng.Int63n(500), cycle)
		}
	}
}

func summaryJSON(t *testing.T, s *Set) string {
	t.Helper()
	sum := s.Summary()
	data, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestChannelLoads pins counting, utilisation, ordering and top-K
// truncation.
func TestChannelLoads(t *testing.T) {
	m := testMeta()
	c := NewChannelLoads(2)
	c.Attach(m)
	// Router 2 port 1 hottest (5 flits), router 0 port 0 next (3), one
	// flit on router 3 port 0.
	for i := 0; i < 5; i++ {
		c.Hop(2, 1, m.Warmup)
	}
	for i := 0; i < 3; i++ {
		c.Hop(0, 0, m.Warmup)
	}
	c.Hop(3, 0, m.Warmup)
	var s Summary
	c.Summarize(&s)
	st := s.Channels
	if st.Total != 10 || st.Loaded != 3 {
		t.Fatalf("total=%d loaded=%d, want 10/3", st.Total, st.Loaded)
	}
	if len(st.Hottest) != 2 {
		t.Fatalf("top-K not applied: %d entries", len(st.Hottest))
	}
	if st.Hottest[0] != (ChannelLoad{Router: 2, Port: 1, Flits: 5, Util: 5.0 / 100}) {
		t.Errorf("hottest = %+v", st.Hottest[0])
	}
	if st.MaxUtil != 5.0/100 {
		t.Errorf("max util = %v", st.MaxUtil)
	}
	if want := (5.0 + 3 + 1) / 100 / 10; math.Abs(st.MeanUtil-want) > 1e-15 {
		t.Errorf("mean util = %v, want %v", st.MeanUtil, want)
	}
	// topK <= 0 reports everything.
	full := NewChannelLoads(0)
	full.Attach(m)
	full.Hop(0, 0, m.Warmup)
	full.Hop(1, 1, m.Warmup)
	var fs Summary
	full.Summarize(&fs)
	if len(fs.Channels.Hottest) != 2 {
		t.Errorf("topK=0 truncated to %d", len(fs.Channels.Hottest))
	}
}

// TestChannelLoadsMatchFullSort: the selected top K, Loaded, MaxUtil
// and MeanUtil equal, bit for bit, what sorting every loaded channel
// gives, on loads with many ties at and around the cut.
func TestChannelLoadsMatchFullSort(t *testing.T) {
	degrees := make([]int32, 40)
	for i := range degrees {
		degrees[i] = int32(3 + i%5)
	}
	m := Meta{Routers: len(degrees), Degrees: degrees, Measure: 37}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		flits := map[[2]int32]int64{}
		for r, d := range degrees {
			for p := int32(0); p < d; p++ {
				if f := rng.Int63n(6) - 1; f > 0 { // idle about a third of the time
					flits[[2]int32{int32(r), p}] = f
				}
			}
		}
		for _, topK := range []int{0, 1, 5, 32, 1000} {
			c := NewChannelLoads(topK)
			c.Attach(m)
			var want []ChannelLoad
			for r, d := range degrees {
				for p := int32(0); p < d; p++ {
					f := flits[[2]int32{int32(r), p}]
					for i := int64(0); i < f; i++ {
						c.Hop(int32(r), p, 0)
					}
					if f > 0 {
						want = append(want, ChannelLoad{Router: int32(r), Port: p, Flits: f, Util: float64(f) / 37})
					}
				}
			}
			sortChannels(want)
			var sum float64
			for _, l := range want {
				sum += l.Util
			}
			var s Summary
			c.Summarize(&s)
			st := s.Channels
			if st.Loaded != len(want) || st.MaxUtil != want[0].Util ||
				math.Float64bits(st.MeanUtil) != math.Float64bits(sum/float64(st.Total)) {
				t.Fatalf("trial %d topK %d: loaded %d max %v mean %v, want %d %v %v",
					trial, topK, st.Loaded, st.MaxUtil, st.MeanUtil, len(want), want[0].Util, sum/float64(st.Total))
			}
			if topK > 0 && len(want) > topK {
				want = want[:topK]
			}
			if !slices.Equal(st.Hottest, want) {
				t.Fatalf("trial %d topK %d: hottest %v, want %v", trial, topK, st.Hottest, want)
			}
		}
	}
}

// TestSeriesOccupancy pins the derived occupancy gauge: cumulative
// injections minus deliveries per interval, drain deliveries ignored.
func TestSeriesOccupancy(t *testing.T) {
	m := Meta{Routers: 1, Endpoints: 2, Degrees: []int32{1}, Warmup: 10, Measure: 40}
	s := NewSeries(10) // 4 intervals
	s.Attach(m)
	s.Inject(0, 10)
	s.Inject(1, 12)
	s.Deliver(0, 1, 5, 19)  // interval 0: +2 inject, -1 deliver
	s.Inject(0, 25)         // interval 1
	s.Deliver(1, 1, 9, 31)  // interval 2
	s.Deliver(0, 1, 40, 55) // drain: window ends at 50, ignored
	var sum Summary
	s.Summarize(&sum)
	st := sum.Series
	if st.Interval != 10 || len(st.Occupancy) != 4 {
		t.Fatalf("interval=%d n=%d", st.Interval, len(st.Occupancy))
	}
	wantOcc := []int64{1, 2, 1, 1}
	for i, w := range wantOcc {
		if st.Occupancy[i] != w {
			t.Errorf("occupancy[%d] = %d, want %d", i, st.Occupancy[i], w)
		}
	}
	if st.PeakOccupancy != 2 {
		t.Errorf("peak = %d, want 2", st.PeakOccupancy)
	}
}

// TestFairnessJain pins the Jain index and worst-source selection.
func TestFairnessJain(t *testing.T) {
	m := testMeta()
	f := NewFairness()
	f.Attach(m)
	// Source 0: 4 deliveries at latency 10; source 1: 2 at latency 100;
	// source 2 injected but starved; sources 3..7 idle.
	for i := 0; i < 4; i++ {
		f.Inject(0, m.Warmup)
		f.Deliver(0, 1, 10, m.Warmup)
	}
	for i := 0; i < 2; i++ {
		f.Inject(1, m.Warmup)
		f.Deliver(1, 1, 100, m.Warmup)
	}
	f.Inject(2, m.Warmup)
	var s Summary
	f.Summarize(&s)
	st := s.Fairness
	if st.Active != 3 {
		t.Fatalf("active = %d, want 3", st.Active)
	}
	// Jain over delivered counts {4, 2, 0}: (6^2)/(3*20) = 0.6.
	if math.Abs(st.Jain-0.6) > 1e-12 {
		t.Errorf("jain = %v, want 0.6", st.Jain)
	}
	if st.MinDelivered != 0 || st.MaxDelivered != 4 {
		t.Errorf("min/max delivered = %d/%d, want 0/4", st.MinDelivered, st.MaxDelivered)
	}
	if st.WorstSource != 1 || st.WorstMeanLatency != 100 {
		t.Errorf("worst source = %d@%v, want 1@100", st.WorstSource, st.WorstMeanLatency)
	}
}

// TestRegistry pins name resolution, the unknown-name error contents and
// the comma-list helpers.
func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) < 4 {
		t.Fatalf("stock collectors missing: %v", names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if n == "" || seen[n] {
			t.Errorf("collector table has an empty or duplicate name %q", n)
		}
		seen[n] = true
		if _, err := New(n); err != nil {
			t.Fatal(err)
		}
	}
	_, err := New("bogus")
	var ue *UnknownError
	if err == nil {
		t.Fatal("unknown collector accepted")
	}
	if !errorsAs(err, &ue) {
		t.Fatalf("error type %T", err)
	}
	for _, n := range names {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("unknown-name error does not enumerate %q: %v", n, err)
		}
	}

	if got := ParseNames(" latency, channels ,"); len(got) != 2 || got[0] != "latency" || got[1] != "channels" {
		t.Errorf("ParseNames = %v", got)
	}
	if got := ParseNames("all"); len(got) != len(names) {
		t.Errorf("ParseNames(all) = %v", got)
	}
	if err := CheckNames("latency,fairness"); err != nil {
		t.Errorf("valid names rejected: %v", err)
	}
	if err := CheckNames("latency,nope"); err == nil {
		t.Error("invalid name accepted")
	}
	if err := CheckNames(""); err != nil {
		t.Errorf("empty selection rejected: %v", err)
	}
	if err := CheckNames("all"); err != nil {
		t.Errorf("all rejected: %v", err)
	}
}

// TestCheckNamesWalk pins CheckNames to the selection ParseNames splits:
// its error, or nil, is the one New gives on the first bad name of that
// list, for unknown, empty and "all" selections alike; and a valid
// selection is checked without allocating.
func TestCheckNamesWalk(t *testing.T) {
	ref := func(spec string) error {
		for _, n := range ParseNames(spec) {
			if _, err := New(n); err != nil {
				return err
			}
		}
		return nil
	}
	for _, spec := range []string{
		"", " ", ",", " , ,", "latency", " latency , channels ,", "latency,,fairness",
		"nope", "latency,nope", "nope,latency", "latency, no pe", "all", " all ", "all,latency", "ALL", "latency,all",
	} {
		got, want := fmt.Sprint(CheckNames(spec)), fmt.Sprint(ref(spec))
		if got != want {
			t.Errorf("CheckNames(%q) = %s, want %s", spec, got, want)
		}
	}
	if a := testing.AllocsPerRun(100, func() {
		if CheckNames("latency,channels,fairness") != nil {
			t.Fatal("valid selection rejected")
		}
	}); a != 0 {
		t.Errorf("CheckNames on a valid selection: %v allocs, want 0", a)
	}
}

// errorsAs avoids importing errors just for one assertion.
func errorsAs(err error, target **UnknownError) bool {
	ue, ok := err.(*UnknownError)
	if ok {
		*target = ue
	}
	return ok
}
