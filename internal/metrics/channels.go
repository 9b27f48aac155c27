package metrics

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

// Loads returns every loaded channel, hottest first. It allocates; call
// it after the run, not from a hook.
func (c *ChannelLoads) Loads() []ChannelLoad {
	var loads []ChannelLoad
	window := float64(c.window)
	for r := 0; r+1 < len(c.offsets); r++ {
		for p := c.offsets[r]; p < c.offsets[r+1]; p++ {
			if f := c.flits[p]; f > 0 {
				loads = append(loads, ChannelLoad{
					Router: int32(r), Port: p - c.offsets[r],
					Flits: f, Util: float64(f) / window,
				})
			}
		}
	}
	sortChannels(loads)
	return loads
}

// Summarize fills the Channels section.
func (c *ChannelLoads) Summarize(out *Summary) {
	loads := c.Loads()
	st := &ChannelStats{Loaded: len(loads), Total: len(c.flits)}
	var sum float64
	for _, l := range loads {
		sum += l.Util
	}
	if len(loads) > 0 {
		st.MaxUtil = loads[0].Util
	}
	if st.Total > 0 {
		st.MeanUtil = sum / float64(st.Total)
	}
	if c.topK > 0 && len(loads) > c.topK {
		loads = loads[:c.topK]
	}
	st.Hottest = loads
	out.Channels = st
}
