package scenario

import (
	"sync"
	"sync/atomic"

	"slimfly/internal/obs"
	"slimfly/internal/route"
	"slimfly/internal/sim"
	"slimfly/internal/topo"
	"slimfly/internal/traffic"
)

// Runtime telemetry (internal/obs): build spans and memoisation hit
// counters across every Env in the process. "Hits" count resolutions
// served from an existing entry; builds time the once-guarded
// construction itself (topology + routing backend, pattern derivation).
// The route.* series report what backend the latest topology build
// resolved to and what its materialized state costs, so /debug/vars and
// sfsweepd show whether a live sweep is running on tables or computed
// routing.
var (
	obsTopoBuildSpan    = obs.NewTimer("scenario.build_topo")
	obsRouteBuildSpan   = obs.NewTimer("scenario.build_route") // route.Select alone, inside build_topo
	obsTopoHits         = obs.NewCounter("scenario.topo_hits")
	obsPatternBuildSpan = obs.NewTimer("scenario.build_pattern")
	obsPatternHits      = obs.NewCounter("scenario.pattern_hits")

	obsRouteTableBytes = obs.NewGauge("scenario.route.table_bytes")
	obsRouteTables     = obs.NewCounter("scenario.route.tables_builds")
	obsRouteComputed   = obs.NewCounter("scenario.route.computed_builds")
	obsRouteBackend    atomic.Value // string: latest resolved backend name

	// obsIgnoredWorkers counts resolved specs whose SimParams.Workers asked
	// for two or more, which the engine ignores. Its name is the one
	// cmd/sfbench reads across its Workers 2 run, the only reason it exists.
	obsIgnoredWorkers = obs.NewCounter("sim.barrier_waits")
)

func init() {
	obsRouteBackend.Store("")
	obs.Publish("scenario.route.backend", func() any { return obsRouteBackend.Load() })
}

// Env resolves scenario specs into runnable simulator configurations,
// memoising the expensive parts -- topology construction, routing-backend
// builds and adversarial-pattern derivation -- so many resolutions of the
// same network (a sweep's workers, a CLI load sweep) build it exactly
// once. All methods are safe for concurrent use; construction is lazy, so
// a fully cached sweep never builds anything.
type Env struct {
	mu       sync.Mutex
	topos    map[TopoSpec]*builtTopo
	patterns map[patternKey]*builtPattern

	// Routing-backend policy for every topology this Env builds. The policy
	// never enters Spec.Key: backends are bit-equal by contract, so cached
	// results are backend-invariant.
	backend route.Policy
}

type builtTopo struct {
	once sync.Once
	tp   topo.Topology
	rt   route.Router
	err  error
}

type patternKey struct {
	topo TopoSpec
	name string
	seed uint64
}

type builtPattern struct {
	once sync.Once
	pat  traffic.Pattern
	err  error
}

// EnvOption configures an Env at construction.
type EnvOption func(*Env)

// WithRouteBackend selects the routing-backend policy (route.PolicyAuto,
// route.PolicyTables, route.PolicyComputed) for every topology the Env
// builds. The default is auto: BFS tables while they fit the budget,
// computed above it for kinds with an algebraic form.
func WithRouteBackend(p route.Policy) EnvOption { return func(e *Env) { e.backend = p } }

// NewEnv returns an empty resolver environment.
func NewEnv(opts ...EnvOption) *Env {
	e := &Env{
		topos:    make(map[TopoSpec]*builtTopo),
		patterns: make(map[patternKey]*builtPattern),
		backend:  route.PolicyAuto,
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Topo builds (once) and returns the topology and its minimal-routing
// backend for spec t, resolved under the Env's backend policy.
func (e *Env) Topo(t TopoSpec) (topo.Topology, route.Router, error) {
	t = t.Canonical()
	e.mu.Lock()
	b := e.topos[t]
	if b != nil {
		obsTopoHits.Inc()
	} else {
		b = &builtTopo{}
		e.topos[t] = b
	}
	e.mu.Unlock()
	b.once.Do(func() {
		defer obsTopoBuildSpan.Start().End()
		b.tp, b.rt, b.err = BuildRouting(t, e.backend, 0)
		if b.err == nil {
			obsRouteTableBytes.Set(b.rt.TableBytes())
			obsRouteBackend.Store(b.rt.Backend())
			if b.rt.Backend() == "computed" {
				obsRouteComputed.Inc()
			} else {
				obsRouteTables.Inc()
			}
		}
	})
	return b.tp, b.rt, b.err
}

// Pattern builds (once) the named traffic pattern for topology spec t.
// Adversarial ("worstcase") patterns depend on the topology, its routing
// backend and the seed; the read-only result is shared across workers.
func (e *Env) Pattern(t TopoSpec, name string, seed uint64) (traffic.Pattern, error) {
	t = t.Canonical()
	k := patternKey{topo: t, name: name, seed: seed}
	e.mu.Lock()
	b := e.patterns[k]
	if b != nil {
		obsPatternHits.Inc()
	} else {
		b = &builtPattern{}
		e.patterns[k] = b
	}
	e.mu.Unlock()
	b.once.Do(func() {
		tp, rt, err := e.Topo(t)
		if err != nil {
			b.err = err
			return
		}
		defer obsPatternBuildSpan.Start().End()
		b.pat, b.err = BuildPattern(name, tp, rt, seed)
	})
	return b.pat, b.err
}

// Config resolves spec s into a runnable simulator configuration:
// topology and routing backend from the memoised builds, algorithm and
// pattern by name. One base spec can be resolved at many loads or seeds
// (set the field on a copy) while the topology and pattern are shared.
func (e *Env) Config(s Spec) (sim.Config, error) {
	tp, rt, err := e.Topo(s.Topo)
	if err != nil {
		return sim.Config{}, err
	}
	algo, err := BuildAlgo(s.Algo, tp)
	if err != nil {
		return sim.Config{}, err
	}
	pat, err := e.Pattern(s.Topo, s.Pattern, s.Seed)
	if err != nil {
		return sim.Config{}, err
	}
	p := s.Sim
	if p.Workers >= 2 {
		obsIgnoredWorkers.Inc()
	}
	return sim.Config{
		Topo: tp, Router: rt, Algo: algo, Pattern: pat, Load: s.Load,
		NumVCs: p.NumVCs, BufPerPort: p.BufPerPort,
		RouterDelay: p.RouterDelay, ChannelDelay: p.ChannelDelay,
		CreditDelay: p.CreditDelay, Speedup: p.Speedup,
		Warmup: p.Warmup, Measure: p.Measure, Drain: p.Drain,
		Metrics: p.Metrics,
		Seed:    s.Seed,
	}, nil
}
