package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"slimfly/internal/metrics"
	"slimfly/internal/sim"
)

// CacheFormat versions the scenario hash: bump it whenever the simulator
// or the spec encoding changes in a result-affecting way, so stale sweep
// cache entries become unreachable instead of silently wrong.
//
// v2: cache entries grew an optional metrics.Summary payload alongside
// Result. Entries written under v1 are Result-only; bumping the format
// (which both keys and entry validation incorporate) makes them
// unreachable rather than letting a v1 hit satisfy a job whose requested
// collector output it cannot carry.
const CacheFormat = "slimfly-sweep-v2"

// TopoSpec names one network by registry kind and size. Either Kind+N (a
// roster topology built near N endpoints) or Kind "SF" with an explicit Q
// (and optionally an oversubscribed concentration P).
type TopoSpec struct {
	Kind string `json:"kind"`           // registry kind: SF, DF, FT-3, ...
	N    int    `json:"n,omitempty"`    // target endpoint count (roster sizing)
	Q    int    `json:"q,omitempty"`    // exact Slim Fly order (overrides N)
	P    int    `json:"p,omitempty"`    // SF concentration override (needs Q)
	Seed uint64 `json:"seed,omitempty"` // construction seed (random topologies)
}

// String returns a short human-readable label, e.g. "SF/n1000" or "SF/q19p18".
func (t TopoSpec) String() string {
	if t.Q > 0 {
		if t.P > 0 {
			return fmt.Sprintf("%s/q%dp%d", t.Kind, t.Q, t.P)
		}
		return fmt.Sprintf("%s/q%d", t.Kind, t.Q)
	}
	return fmt.Sprintf("%s/n%d", t.Kind, t.N)
}

// Canonical returns the spec with redundant fields normalised: an exact
// order q overrides the near-sizing target n, so n is dropped. Env
// memoisation canonicalises its keys with it, and CLIs apply it to
// flag-built specs; Spec.Key hashes the spec as written (like SimParams),
// so declarative sweep specs should not set both.
func (t TopoSpec) Canonical() TopoSpec {
	if t.Q > 0 {
		t.N = 0
	}
	return t
}

// Validate checks the spec's shape before construction: the kind must be
// registered (unknown kinds fail with the valid names enumerated) and the
// size fields must be coherent.
func (t TopoSpec) Validate() error {
	if t.Kind == "" {
		return fmt.Errorf("scenario: topology with empty kind")
	}
	if err := CheckName(Topologies, t.Kind); err != nil {
		return err
	}
	if t.N < 0 || t.Q < 0 || t.P < 0 {
		return fmt.Errorf("scenario: topology %s has a negative size field", t)
	}
	if t.Q == 0 && t.N <= 0 {
		return fmt.Errorf("scenario: topology %s needs n or q", t)
	}
	if t.Q > 0 && t.Kind != "SF" {
		return fmt.Errorf("scenario: topology %s: q is only valid for kind SF", t)
	}
	if t.P > 0 && t.Q == 0 {
		return fmt.Errorf("scenario: topology %s sets p without q", t)
	}
	return nil
}

// SimParams are the simulator knobs of a scenario. Zero values mean
// "simulator default" (see sim.Config.withDefaults); they are hashed as
// written, so an explicit default and an omitted field produce different
// keys.
type SimParams struct {
	Warmup       int `json:"warmup,omitempty"`
	Measure      int `json:"measure,omitempty"`
	Drain        int `json:"drain,omitempty"`
	NumVCs       int `json:"num_vcs,omitempty"`
	BufPerPort   int `json:"buf_per_port,omitempty"`
	RouterDelay  int `json:"router_delay,omitempty"`
	ChannelDelay int `json:"channel_delay,omitempty"`
	CreditDelay  int `json:"credit_delay,omitempty"`
	Speedup      int `json:"speedup,omitempty"`

	// Metrics selects streaming collectors by comma-separated registry
	// name (internal/metrics; e.g. "latency,channels"). It is part of the
	// scenario's identity: the collector selection decides
	// what a cached entry's summary payload contains, so two selections
	// must occupy different cache slots. omitempty keeps metric-less
	// specs byte-compatible with their pre-pipeline encoding (same hash
	// input, modulo the format-version bump).
	//
	// The packet trace rides on the same rule: selecting "trace" changes
	// the payload (the cached summary carries the sampled event stream),
	// so trace configuration enters the key exactly as far as the name
	// does -- and no further, because the collector's knobs (sampling
	// shift, ring capacity) are fixed registry defaults, not spec fields.
	// Were they ever made configurable they would have to join SimParams
	// (and hence the key) explicitly; a name whose payload silently
	// depended on out-of-key configuration would poison the cache.
	Metrics string `json:"metrics,omitempty"`

	// Workers is ignored and stays out of Spec.Key; it is kept only because cmd/sfbench sets it.
	Workers int `json:"-"`
}

// validate rejects negative knobs by their JSON names, as sim.New would by
// their Config names, an explicit num_vcs and buf_per_port past
// sim.CheckBuffers, and a window past sim.CheckCycleRange, so that a
// submitted sweep fails once at the door and not once per job.
func (p SimParams) validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"warmup", p.Warmup}, {"measure", p.Measure}, {"drain", p.Drain},
		{"num_vcs", p.NumVCs}, {"buf_per_port", p.BufPerPort}, {"router_delay", p.RouterDelay},
		{"channel_delay", p.ChannelDelay}, {"credit_delay", p.CreditDelay}, {"speedup", p.Speedup},
	} {
		if f.v < 0 {
			return fmt.Errorf("scenario: negative sim.%s %d", f.name, f.v)
		}
	}
	if p.NumVCs > math.MaxInt8 { // sim.New's limit: the engine's VC fields are int8
		return fmt.Errorf("scenario: sim.num_vcs %d exceeds the engine's limit of %d", p.NumVCs, math.MaxInt8)
	}
	// At num_vcs 0 the count comes from the algorithm and the diameter,
	// which only sim.New resolves: each job meets this rule there.
	if p.NumVCs > 0 {
		if err := sim.CheckBuffers(sim.Config{NumVCs: p.NumVCs, BufPerPort: p.BufPerPort}); err != nil {
			return fmt.Errorf("scenario: sim.num_vcs and buf_per_port: %w", err)
		}
	}
	if err := sim.CheckCycleRange(sim.Config{
		Warmup: p.Warmup, Measure: p.Measure, Drain: p.Drain,
		RouterDelay: p.RouterDelay, ChannelDelay: p.ChannelDelay, CreditDelay: p.CreditDelay,
	}); err != nil {
		return fmt.Errorf("scenario: sim.warmup, measure, drain, router_delay, channel_delay and credit_delay: %w", err)
	}
	return nil
}

// Spec is one fully resolved scenario point: a topology, a routing
// algorithm, a traffic pattern, an offered load, a seed and the simulator
// knobs. It is JSON-roundtrippable and is the sweep engine's job unit
// (sweep.Job is an alias), so its canonical encoding doubles as the
// sweep cache's content address.
type Spec struct {
	Topo    TopoSpec  `json:"topo"`
	Algo    string    `json:"algo"`
	Pattern string    `json:"pattern"`
	Load    float64   `json:"load"`
	Seed    uint64    `json:"seed"`
	Sim     SimParams `json:"sim"`
}

// Label returns the human-readable scenario identifier used in progress
// output and result tables.
func (s Spec) Label() string {
	return fmt.Sprintf("%s %s %s load=%g seed=%d", s.Topo, s.Algo, s.Pattern, s.Load, s.Seed)
}

// Key returns the scenario's content address: a stable hex SHA-256 over
// the cache format version and the canonical JSON encoding. Two processes
// (or two runs of the same sweep) computing the key for the same
// configuration always agree, which is what makes the sweep cache
// resumable.
func (s Spec) Key() string {
	enc, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("scenario: spec not marshallable: %v", err)) // struct of scalars; cannot fail
	}
	h := sha256.New()
	io.WriteString(h, CacheFormat)
	h.Write([]byte{'\n'})
	h.Write(enc)
	return hex.EncodeToString(h.Sum(nil))
}

// Validate checks the spec names against the registries (with valid names
// enumerated in the errors), the load range and the signs of the simulator
// knobs. It does not build
// anything; topology-dependent constraints (e.g. ANCA on a non-fat-tree)
// surface as *IncompatibleError at resolution time instead.
func (s Spec) Validate() error {
	if err := s.Topo.Validate(); err != nil {
		return err
	}
	if err := CheckName(Algos, s.Algo); err != nil {
		return err
	}
	if s.Pattern != "" {
		if err := CheckName(Patterns, s.Pattern); err != nil {
			return err
		}
	}
	if err := metrics.CheckNames(s.Sim.Metrics); err != nil {
		return err
	}
	if err := s.Sim.validate(); err != nil {
		return err
	}
	if !(s.Load >= 0 && s.Load <= 1) { // written so that NaN fails too
		return fmt.Errorf("scenario: load %v out of [0,1]", s.Load)
	}
	return nil
}
