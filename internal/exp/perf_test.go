package exp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"testing"

	"slimfly/internal/sweep"
)

// microScale keeps the simulator-backed runners fast enough for go test.
func microScale() PerfScale {
	return PerfScale{
		TargetN: 220, Warmup: 200, Measure: 600, Drain: 3000,
		Loads: []float64{0.2, 0.6},
	}
}

func TestFig6UniformMicro(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed; skipped in -short")
	}
	tb := Fig6("uniform", microScale(), 21)
	if len(tb.Rows) != 12 { // 6 protocols x 2 loads
		t.Fatalf("rows = %d, want 12", len(tb.Rows))
	}
	lat := map[string]float64{}
	for _, r := range tb.Rows {
		if r[1] == "0.200" {
			v, err := strconv.ParseFloat(r[2], 64)
			if err != nil {
				t.Fatal(err)
			}
			lat[r[0]] = v
		}
	}
	// Figure 6a's low-load ordering: SF-MIN below SF-VAL and below
	// FT-ANCA (the diameter-2 advantage).
	if lat["SF-MIN"] >= lat["SF-VAL"] {
		t.Errorf("SF-MIN latency %v >= SF-VAL %v at low load", lat["SF-MIN"], lat["SF-VAL"])
	}
	if lat["SF-MIN"] >= lat["FT-ANCA"] {
		t.Errorf("SF-MIN latency %v >= FT-ANCA %v at low load", lat["SF-MIN"], lat["FT-ANCA"])
	}
}

func TestFig6WorstCaseMicro(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed; skipped in -short")
	}
	tb := Fig6("worstcase", microScale(), 22)
	acc := map[string]float64{}
	for _, r := range tb.Rows {
		if r[1] == "0.600" {
			v, err := strconv.ParseFloat(r[3], 64)
			if err != nil {
				t.Fatal(err)
			}
			acc[r[0]] = v
		}
	}
	// Figure 6d: adversarial traffic collapses SF-MIN far below the
	// adaptive protocols.
	if acc["SF-MIN"] >= acc["SF-UGAL-G"] {
		t.Errorf("SF-MIN accepted %v >= SF-UGAL-G %v on worst case", acc["SF-MIN"], acc["SF-UGAL-G"])
	}
	if acc["SF-MIN"] >= acc["SF-VAL"] {
		t.Errorf("SF-MIN accepted %v >= SF-VAL %v on worst case", acc["SF-MIN"], acc["SF-VAL"])
	}
}

func TestFig8aMicro(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed; skipped in -short")
	}
	tb := Fig8a(microScale(), 23)
	if len(tb.Rows) != 36 { // 6 buffer sizes x 6 loads
		t.Fatalf("rows = %d, want 36", len(tb.Rows))
	}
}

func TestFig8beMicro(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed; skipped in -short")
	}
	tb := Fig8be(microScale(), 24)
	if len(tb.Rows) == 0 {
		t.Fatal("empty table")
	}
	// Two oversubscribed variants, two patterns, four protocols each.
	if len(tb.Rows) != 2*(4*4+4*5) {
		t.Logf("rows = %d (load grids may change); sanity only", len(tb.Rows))
	}
}

// fig6FromSpecs renders the Figure 6 table from the declarative form:
// Fig6Specs with the latency collector selected, executed by
// sweep.RunJobs, rows in Fig6's order (load-major, fig6Protocols within a
// load) and Fig6's columns.
func fig6FromSpecs(t *testing.T, pattern string, sc PerfScale, seed uint64) *Table {
	t.Helper()
	specs := Fig6Specs(pattern, sc, seed)
	for _, s := range specs {
		s.Sim.Metrics = "latency"
	}
	jobs, err := sweep.ExpandAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	env := sweep.NewEnv()
	jrs, _, err := sweep.RunJobs(context.Background(), jobs, env, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	type curve struct {
		kind, algo string
		load       float64
	}
	byCurve := map[curve]sweep.JobResult{}
	for _, jr := range jrs {
		if jr.Err != "" {
			t.Fatal(jr.Err)
		}
		byCurve[curve{jr.Job.Topo.Kind, jr.Job.Algo, jr.Job.Load}] = jr
	}
	var n [3]int
	for i, s := range specs {
		tp, _, err := env.Topo(s.Topos[0])
		if err != nil {
			t.Fatal(err)
		}
		n[i] = tp.Endpoints()
	}
	tb := &Table{
		Title: fmt.Sprintf("Figure 6 (%s): latency vs offered load [SF N=%d, DF N=%d, FT N=%d]",
			pattern, n[0], n[1], n[2]),
		Columns: []string{"protocol", "load", "avg_latency", "accepted", "avg_hops", "saturated", "p50", "p99"},
	}
	for _, load := range sc.Loads {
		for _, pr := range fig6Protocols {
			jr := byCurve[curve{pr.Kind, pr.Algo, load}]
			r, lat := jr.Result, jr.Metrics.Latency
			tb.Add(pr.Label, load, r.AvgLatency, r.Accepted, r.AvgHops, r.Saturated, lat.P50, lat.P99)
		}
	}
	return tb
}

// TestFigureTablesPinned pins the printed micro-scale tables of the
// simulator-backed figures by hash: the engine is deterministic at every
// worker count, so any drift is a change to what the figures report.
func TestFigureTablesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed; skipped in -short")
	}
	for _, c := range []struct {
		name, want string
		table      func() *Table
	}{
		{"fig6-uniform-21", "599712f917d14850695c2e3ca12297fb973c5f2e6a38f81d45a7fd7442c707d2", func() *Table { return fig6FromSpecs(t, "uniform", microScale(), 21) }},
		{"fig6-worstcase-22", "d241946b9c494d8d377b91a9e3164cd2d4920e91d543830d90248aa5c7201d23", func() *Table { return fig6FromSpecs(t, "worstcase", microScale(), 22) }},
		{"fig8a-23", "a9f393958f5ebeb09ef5d07beacab72ad5664479a0e0506f7103ee097bb489c4", func() *Table { return Fig8a(microScale(), 23) }},
		{"fig8be-24", "df6286a275a297a59aef0fef8ab40b0080977777c52d6d5de77169aa4f26f85d", func() *Table { return Fig8be(microScale(), 24) }},
	} {
		sum := sha256.Sum256([]byte(c.table().String()))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: table hash %s, want %s", c.name, got, c.want)
		}
	}
}
