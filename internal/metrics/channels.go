package metrics

import "slices"

// ChannelLoad is the exported per-directed-channel load record: the flits
// forwarded on router's network output port during the measurement window
// and the resulting utilisation (flits per measured cycle).
type ChannelLoad struct {
	Router int32   `json:"router"`
	Port   int32   `json:"port"`
	Flits  int64   `json:"flits"`
	Util   float64 `json:"util"`
}

// DefaultTopChannels is how many hottest channels the registry-built
// collector reports in its summary.
const DefaultTopChannels = 32

// ChannelStats is the channel-load collector's summary section.
type ChannelStats struct {
	// Loaded counts directed channels that forwarded at least one flit.
	Loaded int `json:"loaded"`
	// Total is the number of directed network channels in the system.
	Total   int     `json:"total"`
	MaxUtil float64 `json:"max_util"`
	// MeanUtil averages utilisation over all directed channels (idle ones
	// included), so MaxUtil/MeanUtil reads as a hotspot factor.
	MeanUtil float64 `json:"mean_util"`
	// Hottest lists the most-loaded channels, highest first (ties broken
	// by router then port), truncated to the collector's top-K.
	Hottest []ChannelLoad `json:"hottest,omitempty"`
}

// ChannelLoads counts flits per directed network channel: one int64 per
// (router, output port), flattened over per-router offsets. Fixed
// footprint, one increment per hop observation.
type ChannelLoads struct {
	topK    int // summary truncation; <= 0 reports every loaded channel
	offsets []int32
	flits   []int64
	window  int64
}

// NewChannelLoads returns an unattached channel-load collector reporting
// the topK hottest channels in its summary (<= 0: all loaded channels).
func NewChannelLoads(topK int) *ChannelLoads { return &ChannelLoads{topK: topK} }

// Attach sizes the flat counter array from the per-router degrees.
func (c *ChannelLoads) Attach(m Meta) {
	c.offsets = make([]int32, m.Routers+1)
	total := int32(0)
	for r, d := range m.Degrees {
		c.offsets[r] = total
		total += d
	}
	c.offsets[m.Routers] = total
	c.flits = make([]int64, total)
	c.window = m.Measure
}

// Hop counts one flit departing router's network output port.
//
//sf:hotpath
func (c *ChannelLoads) Hop(router, port int32, _ int64) {
	c.flits[c.offsets[router]+port]++
}

// Summarize fills the Channels section. It builds only the reported
// channels: the k-th largest flit count is the cut, every channel above
// it is reported, and of those at it the first in (router, port) order,
// which is where a full sort would put them. MeanUtil adds one term per
// loaded channel in descending order of flits, the order of that sort.
func (c *ChannelLoads) Summarize(out *Summary) {
	flits := make([]int64, 0, len(c.flits))
	for _, f := range c.flits {
		if f > 0 {
			flits = append(flits, f)
		}
	}
	slices.Sort(flits)
	st := &ChannelStats{Loaded: len(flits), Total: len(c.flits)}
	window := float64(c.window)
	var sum float64
	for i := len(flits) - 1; i >= 0; i-- {
		sum += float64(flits[i]) / window
	}
	if len(flits) > 0 {
		st.MaxUtil = float64(flits[len(flits)-1]) / window
	}
	if st.Total > 0 {
		st.MeanUtil = sum / float64(st.Total)
	}
	k := len(flits)
	if c.topK > 0 && k > c.topK {
		k = c.topK
	}
	if k > 0 {
		cut := flits[len(flits)-k]
		above, _ := slices.BinarySearch(flits, cut+1)
		atCut := k - (len(flits) - above) // channels at the cut to report
		st.Hottest = make([]ChannelLoad, 0, k)
		for r := 0; r+1 < len(c.offsets); r++ {
			for p := c.offsets[r]; p < c.offsets[r+1]; p++ {
				f := c.flits[p]
				if f < cut || (f == cut && atCut == 0) {
					continue
				}
				if f == cut {
					atCut--
				}
				st.Hottest = append(st.Hottest, ChannelLoad{
					Router: int32(r), Port: p - c.offsets[r],
					Flits: f, Util: float64(f) / window,
				})
			}
		}
		sortChannels(st.Hottest)
	}
	out.Channels = st
}
