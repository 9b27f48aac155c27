// Package obs is the runtime telemetry layer: named atomic counters,
// gauges and span timers describing what the process is doing right now
// (jobs in flight, cache hits, phase durations), as
// opposed to internal/metrics, which measures the simulated network
// itself. Instruments are process-global, registered once by name, and
// published as a single "slimfly" expvar map so any expvar consumer --
// including the -debug-addr HTTP listener mounted by ServeDebug -- sees
// them under /debug/vars.
//
// The primitives are deliberately minimal: a single atomic word per
// counter/gauge and three per timer, no labels, no histograms. Hot paths
// (the sweep pool's claim loop) update
// them with one atomic add, which keeps the engines' zero-allocation
// steady-state contract intact. The zero value of every instrument is
// usable, so other packages can also embed them unregistered (sweep's
// Progress does) and feed the same arithmetic without the global name.
package obs

import (
	"expvar"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic count. The zero value is
// ready to use.
type Counter struct{ v atomic.Int64 }

// Inc increments the counter by one.
//
//sf:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous atomic level (queue depth, in-flight jobs).
// The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Timer aggregates span durations: count, total and maximum, from which
// the snapshot derives the mean. The zero value is ready to use.
type Timer struct {
	count atomic.Int64
	total atomic.Int64 // nanoseconds
	max   atomic.Int64 // nanoseconds
}

// Observe folds one finished duration into the aggregate.
func (t *Timer) Observe(d time.Duration) {
	ns := int64(d)
	t.count.Add(1)
	t.total.Add(ns)
	for {
		old := t.max.Load()
		if ns <= old || t.max.CompareAndSwap(old, ns) {
			return
		}
	}
}

// Start opens a span against the timer. The returned Span is a value
// (no allocation); call End to record it.
func (t *Timer) Start() Span { return Span{t: t, start: time.Now()} }

// Total returns the summed duration of observed spans.
func (t *Timer) Total() time.Duration { return time.Duration(t.total.Load()) }

// TimerStats is a Timer's exported snapshot.
type TimerStats struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
	MaxNS   int64 `json:"max_ns"`
	AvgNS   int64 `json:"avg_ns"`
}

// Stats returns the timer's current aggregate.
func (t *Timer) Stats() TimerStats {
	s := TimerStats{Count: t.count.Load(), TotalNS: t.total.Load(), MaxNS: t.max.Load()}
	if s.Count > 0 {
		s.AvgNS = s.TotalNS / s.Count
	}
	return s
}

// Span is one in-progress timed region.
type Span struct {
	t     *Timer
	start time.Time
}

// End closes the span, records its duration and returns it. End on a
// zero Span is a no-op.
func (s Span) End() time.Duration {
	if s.t == nil {
		return 0
	}
	d := time.Since(s.start)
	s.t.Observe(d)
	return d
}

// --- registry ---------------------------------------------------------

// The global instrument registry. Names are dotted paths
// ("sweep.jobs_inflight", "sim.queue_slots"); the full inventory is
// whatever the process registered, listed in the README's Observability
// section for the stock packages.
var reg = struct {
	mu   sync.Mutex
	vars map[string]any // *Counter | *Gauge | *Timer | func() any
}{vars: make(map[string]any)}

var publishOnce sync.Once

// publish exposes the registry as one expvar map the first time any
// instrument is registered. Done lazily so merely importing obs does not
// touch expvar's global namespace.
func publish() {
	publishOnce.Do(func() {
		expvar.Publish("slimfly", expvar.Func(func() any { return Snapshot() }))
	})
}

// lookup returns the instrument registered under name, creating it with
// mk on first use. Registering the same name as two different kinds is a
// programming error and panics.
func lookup[T any](name string, mk func() *T) *T {
	publish()
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if v, ok := reg.vars[name]; ok {
		t, ok := v.(*T)
		if !ok {
			panic("obs: " + name + " already registered as a different kind")
		}
		return t
	}
	t := mk()
	reg.vars[name] = t
	return t
}

// NewCounter returns the counter registered under name, creating it on
// first use (repeat calls share the instance).
func NewCounter(name string) *Counter { return lookup(name, func() *Counter { return &Counter{} }) }

// NewGauge returns the gauge registered under name, creating it on first
// use.
func NewGauge(name string) *Gauge { return lookup(name, func() *Gauge { return &Gauge{} }) }

// NewTimer returns the timer registered under name, creating it on first
// use.
func NewTimer(name string) *Timer { return lookup(name, func() *Timer { return &Timer{} }) }

// Publish registers a computed variable: f is evaluated at snapshot time
// and must return a JSON-marshalable value. Useful for composite views
// (sfsweep publishes its Progress snapshot this way). Re-publishing a
// name replaces the function.
func Publish(name string, f func() any) {
	publish()
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if v, ok := reg.vars[name]; ok {
		if _, isFunc := v.(func() any); !isFunc {
			panic("obs: " + name + " already registered as a different kind")
		}
	}
	reg.vars[name] = f
}

// Snapshot returns every registered instrument's current value, keyed by
// name: counters and gauges as int64, timers as TimerStats, published
// functions as their return value. The map is freshly built and sorted
// iteration-stable via plain map marshalling (encoding/json sorts keys).
func Snapshot() map[string]any {
	reg.mu.Lock()
	names := make([]string, 0, len(reg.vars))
	vars := make(map[string]any, len(reg.vars))
	for n, v := range reg.vars {
		names = append(names, n)
		vars[n] = v
	}
	reg.mu.Unlock()
	sort.Strings(names)
	out := make(map[string]any, len(names))
	for _, n := range names {
		switch v := vars[n].(type) {
		case *Counter:
			out[n] = v.Value()
		case *Gauge:
			out[n] = v.Value()
		case *Timer:
			out[n] = v.Stats()
		case func() any:
			out[n] = v()
		}
	}
	return out
}
