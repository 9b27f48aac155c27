package scenario_test

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"slimfly/internal/scenario"
	"slimfly/internal/sim"
)

// names lists an axis's names in table order.
func names(a scenario.Axis) []string {
	var out []string
	for _, in := range scenario.Describe(a) {
		out = append(out, in.Name)
	}
	return out
}

func TestRegistriesPopulated(t *testing.T) {
	wantTopos := []string{"SF", "DF", "FT-3", "FBF-3", "T3D", "T5D", "HC", "LH-HC", "DLN"}
	wantAlgos := []string{"min", "val", "val3", "ugal-l", "ugal-g", "anca"}
	wantPatterns := []string{"uniform", "shuffle", "bitrev", "bitcomp", "shift", "worstcase"}
	if got := names(scenario.Topologies); !reflect.DeepEqual(got, wantTopos) {
		t.Errorf("topology names = %v, want %v", got, wantTopos)
	}
	if got := names(scenario.Algos); !reflect.DeepEqual(got, wantAlgos) {
		t.Errorf("algo names = %v, want %v", got, wantAlgos)
	}
	if got := names(scenario.Patterns); !reflect.DeepEqual(got, wantPatterns) {
		t.Errorf("pattern names = %v, want %v", got, wantPatterns)
	}
	for _, axis := range []scenario.Axis{scenario.Topologies, scenario.Algos, scenario.Patterns} {
		for _, in := range scenario.Describe(axis) {
			if in.Desc == "" {
				t.Errorf("%s %q has no description", axis, in.Name)
			}
		}
	}
}

func TestUnknownErrorsEnumerate(t *testing.T) {
	err := scenario.CheckName(scenario.Algos, "ecmp")
	var ue *scenario.UnknownError
	if !errors.As(err, &ue) {
		t.Fatalf("CheckName error = %T (%v), want *UnknownError", err, err)
	}
	if ue.Axis != scenario.Algos || ue.Name != "ecmp" {
		t.Errorf("UnknownError = %+v", ue)
	}
	if !reflect.DeepEqual(ue.Known, names(scenario.Algos)) {
		t.Errorf("Known = %v, want registry names", ue.Known)
	}
	for _, name := range ue.Known {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not enumerate %q", err, name)
		}
	}
}

func TestListTextCoversAllNames(t *testing.T) {
	txt := scenario.ListText()
	for _, axis := range []scenario.Axis{scenario.Topologies, scenario.Algos, scenario.Patterns} {
		for _, name := range names(axis) {
			if !strings.Contains(txt, name) {
				t.Errorf("ListText misses %s %q", axis, name)
			}
		}
	}
}

func TestCompatible(t *testing.T) {
	sf := scenario.TopoSpec{Kind: "SF", Q: 5}
	ft := scenario.TopoSpec{Kind: "FT-3", N: 64}
	if scenario.Compatible(sf, "anca") {
		t.Error("anca reported compatible with SF")
	}
	if !scenario.Compatible(ft, "anca") {
		t.Error("anca reported incompatible with FT-3")
	}
	for _, a := range []string{"min", "val", "val3", "ugal-l", "ugal-g"} {
		if !scenario.Compatible(sf, a) || !scenario.Compatible(ft, a) {
			t.Errorf("table-driven algo %q reported incompatible", a)
		}
	}
}

func TestIncompatibleAlgoStructuredError(t *testing.T) {
	tp, err := scenario.Topology(scenario.TopoSpec{Kind: "SF", Q: 5})
	if err != nil {
		t.Fatal(err)
	}
	_, err = scenario.BuildAlgo("anca", tp)
	var ie *scenario.IncompatibleError
	if !errors.As(err, &ie) {
		t.Fatalf("BuildAlgo error = %T (%v), want *IncompatibleError", err, err)
	}
	if ie.Axis != scenario.Algos || ie.Name != "anca" || ie.Topo != "SF" {
		t.Errorf("IncompatibleError = %+v", ie)
	}
}

func TestTopoSpecValidate(t *testing.T) {
	bad := []scenario.TopoSpec{
		{},                         // empty kind
		{Kind: "XX", N: 100},       // unknown kind
		{Kind: "SF"},               // no size
		{Kind: "SF", N: -1},        // negative
		{Kind: "DF", Q: 5},         // q on non-SF
		{Kind: "SF", N: 100, P: 5}, // p without q
		{Kind: "SF", Q: 5, P: -1},  // negative p
	}
	for _, ts := range bad {
		if err := ts.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", ts)
		}
	}
	good := []scenario.TopoSpec{
		{Kind: "SF", N: 100},
		{Kind: "SF", Q: 5},
		{Kind: "SF", Q: 19, P: 18},
		{Kind: "DLN", N: 100, Seed: 3},
	}
	for _, ts := range good {
		if err := ts.Validate(); err != nil {
			t.Errorf("Validate rejected %+v: %v", ts, err)
		}
	}
}

// TestSpecValidateLoad pins the load range check, NaN included: a NaN load
// compares false against both bounds, so it must be rejected by name rather
// than run as a silent zero-injection simulation.
func TestSpecValidateLoad(t *testing.T) {
	spec := scenario.Spec{Topo: scenario.TopoSpec{Kind: "SF", Q: 5}, Algo: "min", Pattern: "uniform"}
	for _, load := range []float64{-0.1, 1.1, math.NaN(), math.Inf(1)} {
		spec.Load = load
		if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "[0,1]") {
			t.Errorf("load %v: Validate = %v, want the [0,1] range error", load, err)
		}
	}
	for _, load := range []float64{0, 0.5, 1} {
		spec.Load = load
		if err := spec.Validate(); err != nil {
			t.Errorf("load %v rejected: %v", load, err)
		}
	}
}

// TestSpecValidateSimParams: every simulator knob a POSTed sweep can set is
// refused when negative, by its JSON name (sim.New would panic on some and
// time-travel on others); zero still means "simulator default".
func TestSpecValidateSimParams(t *testing.T) {
	spec := scenario.Spec{Topo: scenario.TopoSpec{Kind: "SF", Q: 5}, Algo: "min", Pattern: "uniform", Load: 0.1}
	for name, p := range map[string]scenario.SimParams{
		"warmup": {Warmup: -1}, "measure": {Measure: -1}, "drain": {Drain: -1},
		"num_vcs": {NumVCs: -1}, "buf_per_port": {BufPerPort: -1}, "router_delay": {RouterDelay: -1},
		"channel_delay": {ChannelDelay: -1}, "credit_delay": {CreditDelay: -5}, "speedup": {Speedup: -1},
	} {
		spec.Sim = p
		if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "negative sim."+name) {
			t.Errorf("%s: Validate = %v, want an error naming the field", name, err)
		}
	}
	spec.Sim = scenario.SimParams{NumVCs: 200, BufPerPort: 200}
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "sim.num_vcs 200 exceeds") {
		t.Errorf("200 VCs: Validate = %v, want the VC-limit error", err)
	}
	spec.Sim = scenario.SimParams{}
	if err := spec.Validate(); err != nil {
		t.Errorf("all-default sim params rejected: %v", err)
	}
}

// TestSpecValidateCycleRange: a window sim.New would refuse as past the
// int32 cycle stamps is refused at validation, zero fields counting as
// their defaults (measure 5000, drain 20000, delays 2+1+2) exactly as in
// sim.New, and a window one cycle shorter still validates and builds.
func TestSpecValidateCycleRange(t *testing.T) {
	const fits = 1<<31 - 1<<20 - 25005 // the longest warmup under the default rest
	over := scenario.Spec{Topo: scenario.TopoSpec{Kind: "SF", Q: 5}, Algo: "min", Pattern: "uniform", Load: 0.1, Sim: scenario.SimParams{Warmup: fits + 1}}
	err := over.Validate()
	if err == nil || !strings.Contains(err.Error(), "sim.warmup, measure, drain") || !strings.Contains(err.Error(), "int32 cycle-stamp range") {
		t.Errorf("warmup %d: Validate = %v, want the cycle-range error naming the fields", fits+1, err)
	}
	cfg, cerr := scenario.NewEnv().Config(over)
	if cerr != nil {
		t.Fatal(cerr)
	}
	if _, err := sim.New(cfg); err == nil {
		t.Errorf("warmup %d: sim.New accepted what Validate refuses", fits+1)
	}
	under := over
	under.Sim.Warmup = fits
	if err := under.Validate(); err != nil {
		t.Errorf("warmup %d: Validate = %v, want nil", fits, err)
	}
	if cfg, err = scenario.NewEnv().Config(under); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.New(cfg); err != nil {
		t.Errorf("warmup %d validates but sim.New refuses it: %v", fits, err)
	}
}

// TestSpecValidateBuffers: with num_vcs explicit, a spec validates exactly
// when sim.New accepts its buffers -- at least one flit per VC, at most
// 32 767 -- buf_per_port 0 counting as its default 64.
func TestSpecValidateBuffers(t *testing.T) {
	env := scenario.NewEnv()
	for _, vcs := range []int{1, 2, 3, 4, 8, 64, 127, 128} {
		for _, buf := range []int{0, 1, 2, 3, 4, 7, 8, 63, 64, 65, 127, 128, 32767, 32768, 65534, 65535, 100000, 4161409} {
			spec := scenario.Spec{Topo: scenario.TopoSpec{Kind: "SF", Q: 5}, Algo: "min", Pattern: "uniform", Load: 0.1,
				Sim: scenario.SimParams{NumVCs: vcs, BufPerPort: buf}}
			verr := spec.Validate()
			var nerr error
			if cfg, err := env.Config(spec); err != nil {
				nerr = err
			} else {
				_, nerr = sim.New(cfg)
			}
			if (verr == nil) != (nerr == nil) {
				t.Errorf("num_vcs %d, buf_per_port %d: Validate = %v, sim.New = %v", vcs, buf, verr, nerr)
			}
		}
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	s := scenario.Spec{
		Topo:    scenario.TopoSpec{Kind: "SF", Q: 19, P: 18, Seed: 2},
		Algo:    "ugal-l",
		Pattern: "worstcase",
		Load:    0.45,
		Seed:    7,
		Sim:     scenario.SimParams{Warmup: 100, Measure: 200, BufPerPort: 33},
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back scenario.Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Errorf("roundtrip = %+v, want %+v", back, s)
	}
	if back.Key() != s.Key() {
		t.Error("roundtripped spec changed key")
	}
}

// TestKeyGolden pins two content addresses so the key machinery cannot
// drift silently. The values were deliberately re-pinned for the
// slimfly-sweep-v2 format bump (cache entries grew an optional
// metrics.Summary payload; v1 Result-only entries must become
// unreachable, not be served for jobs expecting collector output).
func TestKeyGolden(t *testing.T) {
	cases := []struct {
		spec scenario.Spec
		want string
	}{
		{
			scenario.Spec{
				Topo: scenario.TopoSpec{Kind: "SF", Q: 5},
				Algo: "min", Pattern: "uniform", Load: 0.1, Seed: 1,
				Sim: scenario.SimParams{Warmup: 50, Measure: 100, Drain: 500},
			},
			"37ab43a6eeb69e8488bcc91b94a0473b83e5cffdb47177142223135fb24c9279",
		},
		{
			scenario.Spec{
				Topo: scenario.TopoSpec{Kind: "DF", N: 1000, Seed: 3},
				Algo: "ugal-l", Pattern: "worstcase", Load: 0.45, Seed: 7,
			},
			"e9a3a58dda2d7b61cee6c510c0175e6c666587374f95a274bf5bb9c995410ad7",
		},
	}
	for _, c := range cases {
		if got := c.spec.Key(); got != c.want {
			t.Errorf("%s: Key() = %s, want %s (encoding changed: bump CacheFormat)", c.spec.Label(), got, c.want)
		}
	}
}

// TestMetricsKnob pins the cache-identity contract of SimParams.Metrics:
// unlike Workers, the collector selection changes the content address
// (the cached payload differs), while an empty selection leaves the
// encoding identical to a pre-pipeline spec.
func TestMetricsKnob(t *testing.T) {
	base := scenario.Spec{
		Topo: scenario.TopoSpec{Kind: "SF", Q: 5},
		Algo: "min", Pattern: "uniform", Load: 0.1, Seed: 1,
		Sim: scenario.SimParams{Warmup: 10, Measure: 20, Drain: 100},
	}
	withM := base
	withM.Sim.Metrics = "latency,channels"
	if withM.Key() == base.Key() {
		t.Error("Metrics selection did not change the cache key")
	}
	enc, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(enc), "metrics") {
		t.Errorf("empty Metrics leaked into the encoding: %s", enc)
	}
	if err := withM.Validate(); err != nil {
		t.Errorf("valid collector names rejected: %v", err)
	}
	bad := base
	bad.Sim.Metrics = "latency,bogus"
	err = bad.Validate()
	if err == nil {
		t.Fatal("unknown collector name passed Validate")
	}
	if !strings.Contains(err.Error(), "bogus") || !strings.Contains(err.Error(), "latency") {
		t.Errorf("unknown-collector error does not enumerate names: %v", err)
	}

	env := scenario.NewEnv()
	base.Sim.Metrics = "fairness"
	cfg, err := env.Config(base)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Metrics != "fairness" {
		t.Errorf("Sim.Metrics did not reach sim.Config: %q", cfg.Metrics)
	}
}

func TestConfigOptions(t *testing.T) {
	env := scenario.NewEnv()
	base := scenario.Spec{
		Topo: scenario.TopoSpec{Kind: "SF", Q: 5},
		Algo: "min", Pattern: "uniform", Load: 0.1, Seed: 1,
		Sim: scenario.SimParams{Warmup: 10, Measure: 20, Drain: 100},
	}
	point := base
	point.Load, point.Seed, point.Algo = 0.7, 9, "val"
	cfg, err := env.Config(point)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Load != 0.7 || cfg.Seed != 9 {
		t.Errorf("fields not applied: load=%v seed=%d", cfg.Load, cfg.Seed)
	}
	if cfg.Algo.Name() != "VAL" {
		t.Errorf("algo not applied: %s", cfg.Algo.Name())
	}
	// The memoised topology is shared across resolutions of different
	// points on the same network.
	cfg2, err := env.Config(base)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Topo != cfg2.Topo || cfg.Router != cfg2.Router {
		t.Error("memoised topology rebuilt across Config calls")
	}
}

func TestEnvCanonicalisesTopoKeys(t *testing.T) {
	// An exact q overrides the near-sizing n, so a spec carrying both must
	// share the memoised build with the canonical {q}-only form.
	env := scenario.NewEnv()
	a, _, err := env.Topo(scenario.TopoSpec{Kind: "SF", N: 1000, Q: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := env.Topo(scenario.TopoSpec{Kind: "SF", Q: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("non-canonical TopoSpec built a duplicate topology")
	}
}

func TestEnvPatternMemoised(t *testing.T) {
	env := scenario.NewEnv()
	ts := scenario.TopoSpec{Kind: "SF", Q: 5}
	a, err := env.Pattern(ts, "worstcase", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := env.Pattern(ts, "worstcase", 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same (topo, pattern, seed) built twice")
	}
	c, err := env.Pattern(ts, "worstcase", 2)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seeds shared one adversarial pattern")
	}
}

// TestWorkersKnob pins that SimParams.Workers, which the engine ignores,
// is accepted and never enters the JSON encoding or the content address.
func TestWorkersKnob(t *testing.T) {
	env := scenario.NewEnv()
	base := scenario.Spec{
		Topo: scenario.TopoSpec{Kind: "SF", Q: 5},
		Algo: "min", Pattern: "uniform", Load: 0.1, Seed: 1,
		Sim: scenario.SimParams{Warmup: 10, Measure: 20, Drain: 100},
	}
	knob := base
	knob.Sim.Workers = 4
	if _, err := env.Config(knob); err != nil {
		t.Fatal(err)
	}
	if knob.Key() != base.Key() {
		t.Error("Workers changed the cache key")
	}
	a, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(knob)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("Workers leaked into the spec encoding:\n %s\n %s", a, b)
	}
}
