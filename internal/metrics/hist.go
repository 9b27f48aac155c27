package metrics

import (
	"math"
	"math/bits"
)

// Latency histogram geometry: values below 2^histSubBits are stored
// exactly (one bucket per cycle); above that, each power-of-two range is
// split into 2^histSubBits sub-buckets, so the worst-case relative
// rounding error of any reported quantile is 2^-histSubBits (< 1.6%).
// Simulated latencies are cycle counts well under 2^31, but the bucket
// array covers the full non-negative int64 range -- it is still only
// (64-histSubBits)*2^histSubBits = 3712 counters (~29 KiB).
const (
	histSubBits = 6
	histBase    = 1 << histSubBits
	histBuckets = (64 - histSubBits) * histBase
)

// histBucket maps a non-negative value to its bucket index: the identity
// below histBase, log-major/linear-minor above.
func histBucket(v int64) int {
	if v < histBase {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 1 - histSubBits
	return shift*histBase + int(v>>uint(shift))
}

// histLow returns the smallest value mapping to bucket idx (exact for the
// identity range).
func histLow(idx int) int64 {
	s := idx >> histSubBits
	if s <= 1 {
		return int64(idx)
	}
	shift := s - 1
	return int64(idx-shift*histBase) << uint(shift)
}

// LatencyStats is the latency collector's summary section.
type LatencyStats struct {
	Count int64   `json:"count"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	// Nearest-rank percentiles at the histogram's resolution: exact below
	// histBase cycles, within 2^-histSubBits relative error above.
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// LatencyHist is a streaming log-bucketed latency histogram: fixed
// footprint, one increment per delivery.
type LatencyHist struct {
	buckets []int64
	count   int64
	sum     int64
	min     int64
	max     int64
}

// NewLatencyHist returns an unattached latency histogram.
func NewLatencyHist() *LatencyHist { return &LatencyHist{} }

// Attach allocates the bucket array.
func (h *LatencyHist) Attach(Meta) {
	h.buckets = make([]int64, histBuckets)
	h.count, h.sum, h.max = 0, 0, 0
	h.min = math.MaxInt64
}

// Deliver records one delivered packet's latency.
//
//sf:hotpath
func (h *LatencyHist) Deliver(_, _ int32, latency, _ int64) {
	if latency < 0 {
		latency = 0
	}
	h.buckets[histBucket(latency)]++
	h.count++
	h.sum += latency
	if latency < h.min {
		h.min = latency
	}
	if latency > h.max {
		h.max = latency
	}
}

// Quantile returns the nearest-rank p-quantile (0 < p <= 1): the smallest
// recorded value v such that at least ceil(p*count) observations are <= v,
// at bucket resolution. This is the textbook nearest-rank definition; the
// old percentile picker's int(p*(n-1)) index truncated toward lower ranks
// (e.g. P95 of {10,20,30,40} answered 30 instead of 40).
func (h *LatencyHist) Quantile(p float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(p * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum int64
	for i, n := range h.buckets {
		cum += n
		if cum >= rank {
			v := histLow(i)
			if v < h.min {
				v = h.min // the rank falls in the bucket holding the minimum
			}
			return float64(v)
		}
	}
	return float64(h.max)
}

// Summarize fills the Latency section.
func (h *LatencyHist) Summarize(out *Summary) {
	st := &LatencyStats{Count: h.count, Max: h.max}
	if h.count > 0 {
		st.Min = h.min
		st.Mean = float64(h.sum) / float64(h.count)
		st.P50 = h.Quantile(0.50)
		st.P95 = h.Quantile(0.95)
		st.P99 = h.Quantile(0.99)
	}
	out.Latency = st
}
