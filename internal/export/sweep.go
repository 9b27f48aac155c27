package export

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"slimfly/internal/sweep"
)

// sweepHeader is the column set of WriteSweepCSV, one row per sweep
// point. The p50/p95/p99/max_chan_util/jain columns come from the
// structured metrics summary and are blank for jobs that ran without the
// corresponding collector.
var sweepHeader = []string{
	"topo", "algo", "pattern", "load", "seed",
	"avg_latency", "max_latency", "avg_hops", "accepted",
	"injected", "delivered", "saturated",
	"p50", "p95", "p99", "max_chan_util", "jain",
	"cached", "error", "key",
}

// WriteSweepCSV emits one CSV row per sweep job result, in job order.
// Failed jobs keep their identifying columns and carry the error text, so
// a partially failed sweep still round-trips through spreadsheet tooling.
func WriteSweepCSV(w io.Writer, results []sweep.JobResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(sweepHeader); err != nil {
		return fmt.Errorf("export: sweep csv header: %w", err)
	}
	for _, r := range results {
		var p50, p95, p99, maxUtil, jain string
		if m := r.Metrics; m != nil {
			if m.Latency != nil {
				p50 = strconv.FormatFloat(m.Latency.P50, 'f', 1, 64)
				p95 = strconv.FormatFloat(m.Latency.P95, 'f', 1, 64)
				p99 = strconv.FormatFloat(m.Latency.P99, 'f', 1, 64)
			}
			if m.Channels != nil {
				maxUtil = strconv.FormatFloat(m.Channels.MaxUtil, 'f', 4, 64)
			}
			if m.Fairness != nil {
				jain = strconv.FormatFloat(m.Fairness.Jain, 'f', 4, 64)
			}
		}
		row := []string{
			r.Job.Topo.String(), r.Job.Algo, r.Job.Pattern,
			strconv.FormatFloat(r.Job.Load, 'g', -1, 64),
			strconv.FormatUint(r.Job.Seed, 10),
			strconv.FormatFloat(r.Result.AvgLatency, 'f', 3, 64),
			strconv.FormatInt(r.Result.MaxLatency, 10),
			strconv.FormatFloat(r.Result.AvgHops, 'f', 3, 64),
			strconv.FormatFloat(r.Result.Accepted, 'f', 4, 64),
			strconv.FormatInt(r.Result.Injected, 10),
			strconv.FormatInt(r.Result.Delivered, 10),
			strconv.FormatBool(r.Result.Saturated),
			p50, p95, p99, maxUtil, jain,
			strconv.FormatBool(r.Cached),
			r.Err,
			r.Key,
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("export: sweep csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// SweepJSONLStream emits one JSON object per line per result: the
// line-oriented streaming counterpart of the results array in
// SweepArtifact, consumable with `jq` or a line reader while the sweep is
// still running.
type SweepJSONLStream struct {
	enc *json.Encoder
}

// NewSweepJSONLStream starts a JSONL emission on w.
func NewSweepJSONLStream(w io.Writer) *SweepJSONLStream {
	return &SweepJSONLStream{enc: json.NewEncoder(w)}
}

// Write emits one result as a single line.
func (s *SweepJSONLStream) Write(r sweep.JobResult) error {
	if err := s.enc.Encode(r); err != nil {
		return fmt.Errorf("export: sweep jsonl row: %w", err)
	}
	return nil
}

// channelsHeader is the column set of WriteChannelsCSV: one row per
// (job, hot channel) pair, for hotspot analysis across a sweep.
var channelsHeader = []string{
	"topo", "algo", "pattern", "load", "seed",
	"rank", "router", "port", "flits", "util",
}

// WriteChannelsCSV emits the hottest-channel lists of every job that ran
// the channels collector, one row per channel in descending load order.
// Jobs without channel data contribute no rows.
func WriteChannelsCSV(w io.Writer, results []sweep.JobResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(channelsHeader); err != nil {
		return fmt.Errorf("export: channels csv header: %w", err)
	}
	for _, r := range results {
		if r.Metrics == nil || r.Metrics.Channels == nil {
			continue
		}
		for rank, c := range r.Metrics.Channels.Hottest {
			row := []string{
				r.Job.Topo.String(), r.Job.Algo, r.Job.Pattern,
				strconv.FormatFloat(r.Job.Load, 'g', -1, 64),
				strconv.FormatUint(r.Job.Seed, 10),
				strconv.Itoa(rank + 1),
				strconv.FormatInt(int64(c.Router), 10),
				strconv.FormatInt(int64(c.Port), 10),
				strconv.FormatInt(c.Flits, 10),
				strconv.FormatFloat(c.Util, 'f', 4, 64),
			}
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("export: channels csv row: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// SweepArtifact is the JSON form of a completed (or interrupted) sweep:
// the spec that produced it, the aggregate counters and every per-job
// result.
type SweepArtifact struct {
	Spec    *sweep.Spec       `json:"spec,omitempty"`
	Stats   sweep.Stats       `json:"stats"`
	Results []sweep.JobResult `json:"results"`
}

// WriteSweepJSON emits the sweep artifact as indented JSON.
func WriteSweepJSON(w io.Writer, a SweepArtifact) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(a); err != nil {
		return fmt.Errorf("export: sweep json: %w", err)
	}
	return nil
}

// ReadSweepJSON parses a sweep artifact back, for post-processing tools.
func ReadSweepJSON(r io.Reader) (SweepArtifact, error) {
	var a SweepArtifact
	if err := json.NewDecoder(r).Decode(&a); err != nil {
		return SweepArtifact{}, fmt.Errorf("export: decoding sweep artifact: %w", err)
	}
	return a, nil
}
