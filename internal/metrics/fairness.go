package metrics

// FairnessStats is the per-source fairness collector's summary section.
// Adaptive routing and adversarial patterns can starve individual sources
// long before aggregate throughput shows it; the Jain index and the
// worst-source row make that visible.
type FairnessStats struct {
	// Active counts sources that injected at least one measured packet.
	Active int `json:"active"`
	// Jain is Jain's fairness index over per-active-source delivered
	// counts: 1.0 is perfectly fair, 1/Active is maximally unfair.
	Jain         float64 `json:"jain"`
	MinDelivered int64   `json:"min_delivered"`
	MaxDelivered int64   `json:"max_delivered"`
	// WorstSource is the source with the highest mean delivered latency
	// (-1 when nothing was delivered); WorstMeanLatency is that mean.
	WorstSource      int32   `json:"worst_source"`
	WorstMeanLatency float64 `json:"worst_mean_latency"`
}

// Fairness tracks per-source injected/delivered counts and latency sums:
// three int64 per endpoint, allocated at Attach.
type Fairness struct {
	injected  []int64
	delivered []int64
	latSum    []int64
}

// NewFairness returns an unattached fairness collector.
func NewFairness() *Fairness { return &Fairness{} }

// Attach sizes the per-source counters.
func (f *Fairness) Attach(m Meta) {
	f.injected = make([]int64, m.Endpoints)
	f.delivered = make([]int64, m.Endpoints)
	f.latSum = make([]int64, m.Endpoints)
}

// Inject counts a measured injection at its source.
//
//sf:hotpath
func (f *Fairness) Inject(src int32, _ int64) { f.injected[src]++ }

// Deliver counts a measured delivery and its latency at the source.
//
//sf:hotpath
func (f *Fairness) Deliver(src, _ int32, latency, _ int64) {
	f.delivered[src]++
	f.latSum[src] += latency
}

// Summarize fills the Fairness section. The Jain index runs over sources
// that injected during the window (idle sources in a partial pattern are
// not unfairness), with undelivered sources counting as zero throughput.
func (f *Fairness) Summarize(out *Summary) {
	st := &FairnessStats{WorstSource: -1}
	var sum, sumSq float64
	first := true
	for src := range f.injected {
		if f.injected[src] == 0 {
			continue
		}
		st.Active++
		d := f.delivered[src]
		sum += float64(d)
		sumSq += float64(d) * float64(d)
		if first || d < st.MinDelivered {
			st.MinDelivered = d
		}
		if first || d > st.MaxDelivered {
			st.MaxDelivered = d
		}
		first = false
		if d > 0 {
			if mean := float64(f.latSum[src]) / float64(d); mean > st.WorstMeanLatency {
				st.WorstMeanLatency = mean
				st.WorstSource = int32(src)
			}
		}
	}
	if st.Active > 0 && sumSq > 0 {
		st.Jain = sum * sum / (float64(st.Active) * sumSq)
	}
	out.Fairness = st
}
