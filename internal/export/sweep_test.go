package export

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"slimfly/internal/metrics"
	"slimfly/internal/sim"
	"slimfly/internal/sweep"
)

func sampleResults() []sweep.JobResult {
	j := sweep.Job{
		Topo: sweep.TopoSpec{Kind: "SF", Q: 5}, Algo: "min", Pattern: "uniform",
		Load: 0.3, Seed: 7,
	}
	return []sweep.JobResult{
		{
			Job: j, Key: j.Key(),
			Result: sim.Result{
				AvgLatency: 21.5, MaxLatency: 90, AvgHops: 2.1,
				Accepted: 0.299, Injected: 1000, Delivered: 998,
			},
			Metrics: &metrics.Summary{
				Latency: &metrics.LatencyStats{Count: 998, Min: 7, Max: 90, Mean: 21.5, P50: 19, P95: 44, P99: 71},
				Channels: &metrics.ChannelStats{
					Loaded: 2, Total: 10, MaxUtil: 0.41, MeanUtil: 0.05,
					Hottest: []metrics.ChannelLoad{
						{Router: 3, Port: 1, Flits: 410, Util: 0.41},
						{Router: 0, Port: 2, Flits: 90, Util: 0.09},
					},
				},
				Fairness: &metrics.FairnessStats{Active: 10, Jain: 0.97},
			},
			Elapsed: 0.5,
		},
		{Job: j, Key: j.Key(), Cached: true, Result: sim.Result{AvgLatency: 21.5}},
		{Job: j, Err: "sim: load 2 out of [0,1]"},
	}
}

func TestWriteSweepCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSweepCSV(&buf, sampleResults()); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // header + 3 results
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	if rows[0][0] != "topo" || rows[0][5] != "avg_latency" {
		t.Errorf("unexpected header %v", rows[0])
	}
	if rows[1][0] != "SF/q5" || rows[1][3] != "0.3" || rows[1][5] != "21.500" {
		t.Errorf("unexpected data row %v", rows[1])
	}
	// Summary columns: filled from the metrics payload, blank without one.
	col := map[string]int{}
	for i, name := range rows[0] {
		col[name] = i
	}
	if rows[1][col["p50"]] != "19.0" || rows[1][col["p99"]] != "71.0" {
		t.Errorf("percentile columns wrong: %v", rows[1])
	}
	if rows[1][col["max_chan_util"]] != "0.4100" || rows[1][col["jain"]] != "0.9700" {
		t.Errorf("summary columns wrong: %v", rows[1])
	}
	if rows[2][col["p50"]] != "" || rows[2][col["max_chan_util"]] != "" {
		t.Errorf("metric-less row carries summary values: %v", rows[2])
	}
	if rows[2][col["cached"]] != "true" {
		t.Errorf("cached flag not emitted: %v", rows[2])
	}
	if !strings.Contains(rows[3][col["error"]], "out of [0,1]") {
		t.Errorf("error column missing: %v", rows[3])
	}
}

func TestWriteChannelsCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChannelsCSV(&buf, sampleResults()); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// Header + two hot channels from the one job with channel data.
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3:\n%v", len(rows), rows)
	}
	if rows[1][5] != "1" || rows[1][6] != "3" || rows[1][8] != "410" {
		t.Errorf("hottest row wrong: %v", rows[1])
	}
	if rows[2][5] != "2" || rows[2][9] != "0.0900" {
		t.Errorf("second row wrong: %v", rows[2])
	}
}

func TestSweepJSONRoundTrip(t *testing.T) {
	art := SweepArtifact{
		Spec: &sweep.Spec{
			Name:  "rt",
			Topos: []sweep.TopoSpec{{Kind: "SF", Q: 5}},
			Algos: []string{"min"},
			Loads: []float64{0.3},
		},
		Stats:   sweep.Stats{Total: 3, Executed: 1, Cached: 1, Failed: 1},
		Results: sampleResults(),
	}
	var buf bytes.Buffer
	if err := WriteSweepJSON(&buf, art); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSweepJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != art.Stats {
		t.Errorf("stats round-trip: %+v != %+v", got.Stats, art.Stats)
	}
	if len(got.Results) != len(art.Results) {
		t.Fatalf("results = %d, want %d", len(got.Results), len(art.Results))
	}
	for i := range got.Results {
		if got.Results[i].Result != art.Results[i].Result || got.Results[i].Job != art.Results[i].Job {
			t.Errorf("result %d round-trip mismatch", i)
		}
	}
	if got.Spec == nil || got.Spec.Name != "rt" {
		t.Errorf("spec round-trip: %+v", got.Spec)
	}
}

// TestSweepStreams: the JSONL emitter writes one line per result that
// decodes back to it.
func TestSweepStreams(t *testing.T) {
	results := sampleResults()

	var jl bytes.Buffer
	js := NewSweepJSONLStream(&jl)
	for _, r := range results {
		if err := js.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimRight(jl.String(), "\n"), "\n")
	if len(lines) != len(results) {
		t.Fatalf("jsonl lines = %d, want %d", len(lines), len(results))
	}
	for i, ln := range lines {
		var r sweep.JobResult
		if err := json.Unmarshal([]byte(ln), &r); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if r.Err != results[i].Err || r.Cached != results[i].Cached {
			t.Errorf("line %d round-trip mismatch: %+v", i, r)
		}
	}
}
