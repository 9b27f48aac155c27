package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// resultSet is what `sfbench -out` writes and -compare reads: where the
// numbers were taken, and every run's result line.
type resultSet struct {
	Commit     string   `json:"commit"`
	Go         string   `json:"go"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Runs       []setRun `json:"runs"`
}

// setRun is one run's result line plus which run it was.
type setRun struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	report
}

// exactMetrics are per-layer counts that a deterministic simulator and a
// fixed grid must reproduce exactly: two sets taken at the same seeds
// must agree on them whatever the host did.
var exactMetrics = []string{
	"sim.total_cycles", "sim.injected", "sim.delivered",
	"route.tables_bytes", "route.dfsssp_vcs",
	"sweep.cache_hits", "sweep.cache_misses", "sweep.jobs_failed",
	"sweepd.sse_events", "sweepd.http_non2xx",
}

func loadSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values collects one metric of one workload over the set's runs.
func (s *resultSet) values(workload, metric string, traced bool) []float64 {
	var vs []float64
	for _, r := range s.Runs {
		if r.Workload == workload && r.Trace == traced {
			if m, ok := r.Metrics[metric]; ok {
				vs = append(vs, m.Value)
			}
		}
	}
	return vs
}

// quartiles returns the three cut points of vals as Python's
// statistics.quantiles(vals, n=4) computes them (the exclusive method),
// so a spread printed here is the spread the benchmark's driver sees.
// It needs at least two values.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	ld := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share
// of the median; 0 when there are too few values to have one.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(vals)
	if m := median(vals); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

// verdict applies one end-to-end metric's bound to the two sides' runs.
// The new side regresses when its median is worse than the old one's by
// more than the bound. Where either side's own runs spread wider than
// the bound the medians cannot carry that decision: the row is
// unresolved, unless every new run beats (or loses to) every old run.
func verdict(m metricDecl, old, new []float64) (v string, worse float64) {
	if len(old) == 0 || len(new) == 0 {
		return "missing", 0
	}
	mo, mn := median(old), median(new)
	sign := 1.0 // lower is better: growing is worse
	if m.Better == "higher" {
		sign = -1
	}
	if mo != 0 {
		worse = sign * (mn - mo) / mo
	}
	if max(spread(old), spread(new)) > m.Bound {
		allBetter, allWorse := true, true
		for _, o := range old {
			for _, n := range new {
				if sign*(n-o) >= 0 {
					allBetter = false
				}
				if sign*(n-o) <= 0 {
					allWorse = false
				}
			}
		}
		switch {
		case allBetter:
			return "ok", worse
		case allWorse && worse > m.Bound:
			return "REGRESSION", worse
		}
		return "unresolved", worse
	}
	if worse > m.Bound {
		return "REGRESSION", worse
	}
	return "ok", worse
}

// compareFiles prints one row per workload and end-to-end metric, then
// the exact-count metrics that differ, and returns the exit code: 1 on
// any regression, failed operation or changed count.
func compareFiles(w io.Writer, d *decl, oldPath, newPath string) int {
	old, err := loadSet(oldPath)
	if err != nil {
		return fail(err)
	}
	new, err := loadSet(newPath)
	if err != nil {
		return fail(err)
	}
	for _, s := range []struct {
		side string
		set  *resultSet
	}{{"old", old}, {"new", new}} {
		fmt.Fprintf(w, "# %s: commit %s, %s, nproc %d, GOMAXPROCS %d, %d runs\n",
			s.side, s.set.Commit, s.set.Go, s.set.NProc, s.set.GOMAXPROCS, len(s.set.Runs))
	}
	bad, unresolved := 0, 0
	fmt.Fprintf(w, "%-22s %-13s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "old median", "new median", "worse%", "spread%", "spread%", "bound%", "verdict")
	for _, wl := range d.Workloads {
		for _, m := range d.EndToEnd {
			ov, nv := old.values(wl.Name, m.Name, false), new.values(wl.Name, m.Name, false)
			v, worse := verdict(m, ov, nv)
			switch v {
			case "REGRESSION":
				bad++
			case "unresolved":
				unresolved++
			}
			fmt.Fprintf(w, "%-22s %-13s %12.5g %12.5g %+8.1f %8.1f %8.1f %6.0f  %s (n=%d/%d)\n",
				wl.Name, m.Name, median(ov), median(nv), worse*100, spread(ov)*100, spread(nv)*100, m.Bound*100, v, len(ov), len(nv))
		}
	}
	for _, r := range new.Runs {
		if r.Failed > 0 || !r.Correct {
			bad++
			fmt.Fprintf(w, "%-22s failed_ops: %d of %d operations failed at seed %d (traced=%v)\n", r.Workload, r.Failed, r.Attempted, r.Seed, r.Trace)
		}
	}
	same := 0
	for _, wl := range d.Workloads {
		for _, name := range exactMetrics {
			ov, nv := old.values(wl.Name, name, true), new.values(wl.Name, name, true)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			if fmt.Sprint(ov) == fmt.Sprint(nv) {
				same++
				continue
			}
			bad++
			fmt.Fprintf(w, "%-22s %s: exact count changed: %v -> %v\n", wl.Name, name, ov, nv)
		}
	}
	fmt.Fprintf(w, "# %d regression(s), %d unresolved, %d exact-count metrics identical\n", bad, unresolved, same)
	if bad > 0 {
		return 1
	}
	return 0
}
