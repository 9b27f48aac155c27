package scenario_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"slimfly/internal/scenario"
	"slimfly/internal/sim"
)

// resultsPin is the hash of what formatSpecs produce, recorded beside the
// CacheFormat that was current when it was recorded. A cache entry holds a
// Result and a summary under a key built from CacheFormat, so a change
// that moves either must bump the format, or a cache written before the
// change serves the old numbers for the new program.
var resultsPin = struct{ format, hash string }{
	"slimfly-sweep-v2",
	"6d43efe564931786fe7f820950d8eaafcbdce03450e7b99d4549d9d3d94f44d4",
}

// formatSpecs is a handful of short runs that between them route with
// every registered algorithm, on uniform and worst-case traffic below and
// past saturation, each with the latency and channels collectors.
func formatSpecs() []scenario.Spec {
	params := scenario.SimParams{Warmup: 100, Measure: 200, Drain: 1000, Metrics: "latency,channels"}
	var specs []scenario.Spec
	for _, algo := range names(scenario.Algos) {
		ts := scenario.TopoSpec{Kind: "SF", Q: 5}
		if !scenario.Compatible(ts, algo) {
			ts = scenario.TopoSpec{Kind: "FT-3", N: 128}
		}
		for _, pattern := range []string{"uniform", "worstcase"} {
			for _, load := range []float64{0.3, 0.7} {
				specs = append(specs, scenario.Spec{Topo: ts, Algo: algo, Pattern: pattern, Load: load, Seed: 1, Sim: params})
			}
		}
	}
	return specs
}

// TestResultsMoveFormat: the results and summaries of formatSpecs hash to
// resultsPin.hash while CacheFormat is resultsPin.format. A moved hash
// under an unchanged format fails with "bump CacheFormat".
func TestResultsMoveFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed; skipped in -short")
	}
	env := scenario.NewEnv()
	h := sha256.New()
	for _, s := range formatSpecs() {
		cfg, err := env.Config(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Label(), err)
		}
		res, sum, err := sim.RunSummary(cfg)
		if err != nil {
			t.Fatalf("%s: %v", s.Label(), err)
		}
		rj, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		sj, err := json.Marshal(sum)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\n%s\n%s\n", s.Label(), rj, sj)
	}
	got := hex.EncodeToString(h.Sum(nil))
	switch {
	case got == resultsPin.hash && scenario.CacheFormat == resultsPin.format:
	case scenario.CacheFormat == resultsPin.format:
		t.Fatalf("results hash %s, pinned %s under the same CacheFormat %q: results moved, so bump CacheFormat, then re-pin resultsPin",
			got, resultsPin.hash, scenario.CacheFormat)
	default:
		t.Fatalf("CacheFormat is %q, pinned %q: re-pin resultsPin to {%q, %q}",
			scenario.CacheFormat, resultsPin.format, scenario.CacheFormat, got)
	}
}
