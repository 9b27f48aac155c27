package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"sync/atomic"

	"slimfly/internal/obs"
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

// SimParams are the simulator knobs of a scenario, the sim.Config fields of
// the same names (checked by Spec.CheckLimits). Zero values mean
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
//
// Keys are memoised by the spec's value in keyMemoSlots direct-mapped
// slots, chosen by keySlot, each holding one immutable {spec, key} pair.
// A hit is one hash, one load and one comparison and allocates nothing; a
// miss encodes (json.Marshal stays the only definition of the key),
// counts scenario.key_encodes and swaps its pair into the slot. A hit
// also compares Load's bits: == calls -0 equal to 0, but the encoding
// spells them apart. A NaN load equals nothing, so it always misses and
// panics in the encoder as before. Workers is zeroed before the lookup,
// since it stays out of the key. The memo is an 8 KiB slot array and at
// most 1 024 pairs of 272 bytes (272 KiB), each allocated when a miss
// fills its slot.
func (s Spec) Key() string {
	s.Sim.Workers = 0
	slot := &keyMemo[keySlot(s)]
	if m := slot.Load(); m != nil && m.spec == s && math.Float64bits(m.spec.Load) == math.Float64bits(s.Load) {
		return m.key
	}
	obsKeyEncodes.Inc()
	enc, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("scenario: spec not marshallable: %v", err)) // a NaN or infinite load, which Validate refuses
	}
	h := sha256.New()
	io.WriteString(h, CacheFormat)
	h.Write([]byte{'\n'})
	h.Write(enc)
	key := hex.EncodeToString(h.Sum(nil))
	slot.Store(&keyPair{spec: s, key: key})
	return key
}

// keyMemoSlots is the number of slots in Key's memo.
const keyMemoSlots = 1 << 10

// keyPair is one memoised key; a pair in a slot is never modified.
type keyPair struct {
	spec Spec
	key  string
}

var (
	keyMemo       [keyMemoSlots]atomic.Pointer[keyPair]
	obsKeyEncodes = obs.NewCounter("scenario.key_encodes")
)

// keySlot returns s's slot in Key's memo: FNV-1a over every field, one
// word per number and one byte per string byte, then MurmurHash3's
// finaliser, so that a change in any bit can move the slot.
func keySlot(s Spec) uint64 {
	h := uint64(14695981039346656037)
	word := func(x uint64) { h = (h ^ x) * 1099511628211 }
	str := func(v string) {
		for i := 0; i < len(v); i++ {
			word(uint64(v[i]))
		}
		word(uint64(len(v)))
	}
	t, p := s.Topo, s.Sim
	str(t.Kind)
	str(s.Algo)
	str(s.Pattern)
	str(p.Metrics)
	for _, x := range [...]int{t.N, t.Q, t.P, p.Warmup, p.Measure, p.Drain, p.NumVCs, p.BufPerPort,
		p.RouterDelay, p.ChannelDelay, p.CreditDelay, p.Speedup} {
		word(uint64(x))
	}
	word(t.Seed)
	word(s.Seed)
	word(math.Float64bits(s.Load))
	h = (h ^ h>>33) * 0xff51afd7ed558ccd
	h = (h ^ h>>33) * 0xc4ceb9fe1a85ec53
	return (h ^ h>>33) % keyMemoSlots
}

// Validate checks the spec names against the registries (with valid names
// enumerated in the errors), then the load and the simulator knobs against
// the engine's limits (CheckLimits). It does not build anything;
// topology-dependent constraints (e.g. ANCA on a non-fat-tree) surface as
// *IncompatibleError at resolution time instead.
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
	return s.CheckLimits()
}

// simConfig is the one mapping from a spec to the engine's Config, checked
// by CheckLimits; Env.Config adds the topology, backend, algorithm and pattern.
func (s Spec) simConfig() sim.Config {
	p := s.Sim
	return sim.Config{
		Load:   s.Load,
		NumVCs: p.NumVCs, BufPerPort: p.BufPerPort,
		RouterDelay: p.RouterDelay, ChannelDelay: p.ChannelDelay,
		CreditDelay: p.CreditDelay, Speedup: p.Speedup,
		Warmup: p.Warmup, Measure: p.Measure, Drain: p.Drain,
		Metrics: p.Metrics,
		Seed:    s.Seed,
	}
}

// CheckLimits is the door from a spec to the engine's limits: it runs
// sim.Config.Check on the spec's load and knobs, so a sweep that would fail
// in sim.New fails once at submission, not once per job. Its only work is to
// spell the fields a broken rule names by their JSON tags ("sim.num_vcs").
// It allocates nothing on success.
func (s Spec) CheckLimits() error {
	err := s.simConfig().Check()
	if err == nil {
		return nil
	}
	var ce *sim.ConfigError
	if !errors.As(err, &ce) {
		return err
	}
	names := make([]string, len(ce.Fields))
	for i, name := range ce.Fields {
		f, inSim := reflect.TypeFor[SimParams]().FieldByName(name)
		if !inSim {
			f, _ = reflect.TypeFor[Spec]().FieldByName(name) // Load
		}
		names[i], _, _ = strings.Cut(f.Tag.Get("json"), ",")
		if inSim && i == 0 {
			names[i] = "sim." + names[i] // the block named once: "sim.warmup, measure and drain"
		}
	}
	return fmt.Errorf("scenario: %s", ce.Render(names))
}
