package metrics

// SeriesStats is the time-series collector's summary section: the
// measurement window split into fixed intervals, with injected and
// delivered measured-packet counts per interval and the in-flight
// occupancy at each interval's end (derived exactly as cumulative
// injections minus cumulative deliveries -- both count measured packets,
// so the gauge equals the engine's in-flight counter without reading it).
type SeriesStats struct {
	Interval  int64   `json:"interval"` // cycles per sample
	Injected  []int64 `json:"injected"`
	Delivered []int64 `json:"delivered"`
	Occupancy []int64 `json:"occupancy"`
	// PeakOccupancy is the largest interval-end occupancy; a saturation
	// onset shows up here before it shows up as an unfinished drain.
	PeakOccupancy int64 `json:"peak_occupancy"`
}

// Series samples throughput and occupancy over the measurement window:
// per-interval injected/delivered counters, allocated once at Attach.
// Deliveries during the drain fall outside the window and are ignored --
// the series describes the steady state, not the shutdown transient.
type Series struct {
	interval  int64 // 0: pick ~seriesTargetSamples intervals at Attach
	warmup    int64
	windowEnd int64
	injected  []int64
	delivered []int64
}

// seriesTargetSamples is the default sample count the window is split
// into when no explicit interval is configured.
const seriesTargetSamples = 64

// NewSeries returns an unattached sampler with the given interval in
// cycles (0: derive ~seriesTargetSamples intervals from the window).
func NewSeries(interval int64) *Series { return &Series{interval: interval} }

// Attach sizes the per-interval counters from the measurement window.
func (s *Series) Attach(m Meta) {
	iv := s.interval
	if iv <= 0 {
		iv = m.Measure / seriesTargetSamples
		if iv < 1 {
			iv = 1
		}
	}
	n := int((m.Measure + iv - 1) / iv)
	if n < 1 {
		n = 1
	}
	s.warmup = m.Warmup
	s.windowEnd = m.WindowEnd()
	s.injected = make([]int64, n)
	s.delivered = make([]int64, n)
	// Record the resolved interval: slot divides by it and the summary
	// reports it.
	s.interval = iv
}

func (s *Series) slot(cycle int64) int {
	idx := int((cycle - s.warmup) / s.interval)
	if idx < 0 || idx >= len(s.injected) {
		return -1
	}
	return idx
}

// Inject counts a measured injection into its interval.
//
//sf:hotpath
func (s *Series) Inject(_ int32, cycle int64) {
	if i := s.slot(cycle); i >= 0 {
		s.injected[i]++
	}
}

// Deliver counts a measured in-window delivery into its interval; drain
// deliveries (cycle >= window end) are out of range and dropped by slot.
//
//sf:hotpath
func (s *Series) Deliver(_, _ int32, _, cycle int64) {
	if cycle >= s.windowEnd {
		return
	}
	if i := s.slot(cycle); i >= 0 {
		s.delivered[i]++
	}
}

// Summarize fills the Series section, deriving the occupancy gauge from
// the cumulative injected/delivered difference.
func (s *Series) Summarize(out *Summary) {
	st := &SeriesStats{
		Interval:  s.interval,
		Injected:  append([]int64(nil), s.injected...),
		Delivered: append([]int64(nil), s.delivered...),
		Occupancy: make([]int64, len(s.injected)),
	}
	var inFlight int64
	for i := range s.injected {
		inFlight += s.injected[i] - s.delivered[i]
		st.Occupancy[i] = inFlight
		if inFlight > st.PeakOccupancy {
			st.PeakOccupancy = inFlight
		}
	}
	out.Series = st
}
