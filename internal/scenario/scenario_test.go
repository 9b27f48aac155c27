package scenario_test

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"slimfly/internal/roster"
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
	// The allocator compares staging with int32(Speedup): 2^31 would wrap.
	spec.Sim = scenario.SimParams{Speedup: 1 << 31}
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "sim.speedup 2147483648 exceeds") {
		t.Errorf("speedup 2^31: Validate = %v, want the staging-limit error", err)
	}
}

// TestCheckLimitsNoAllocs: a spec within the limits, collectors and
// explicit buffers included, is checked without allocating; the first
// broken rule still gets its error.
func TestCheckLimitsNoAllocs(t *testing.T) {
	spec := scenario.Spec{Topo: scenario.TopoSpec{Kind: "SF", Q: 5}, Algo: "min", Pattern: "uniform", Load: 0.5,
		Sim: scenario.SimParams{Warmup: 50, Measure: 100, Drain: 500, NumVCs: 4, BufPerPort: 64, Metrics: "latency,channels"}}
	if a := testing.AllocsPerRun(100, func() {
		if spec.CheckLimits() != nil {
			t.Fatal("spec within the limits refused")
		}
	}); a != 0 {
		t.Errorf("CheckLimits on a valid spec: %v allocs, want 0", a)
	}
	spec.Sim.BufPerPort = 3
	if err := spec.CheckLimits(); err == nil || !strings.Contains(err.Error(), "sim.num_vcs and buf_per_port") {
		t.Errorf("3 flits across 4 VCs: CheckLimits = %v, want the buffering error naming both fields", err)
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
// 32 767 -- buf_per_port 0 counting as its default 64; and over generated
// specs, Validate agrees with sim.New on every limit of sim.Config.Check.
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

	// The same law as a property over generated specs: every roster kind at
	// small N, every algorithm compatible with it, and SimParams and loads
	// drawn from each field's edges. With num_vcs explicit, Validate passes
	// exactly when Env.Config and sim.New do; at num_vcs 0 the VC count is
	// only known to sim.New, so Validate must pass whatever sim.New accepts.
	gen := edgeSpecs()
	for _, kind := range roster.Kinds() {
		ts := scenario.TopoSpec{Kind: string(kind), N: 64, Seed: 1}
		for _, algo := range names(scenario.Algos) {
			if !scenario.Compatible(ts, algo) {
				continue
			}
			for _, g := range gen {
				spec := g
				spec.Topo, spec.Algo, spec.Pattern, spec.Seed = ts, algo, "uniform", 1
				verr := spec.Validate()
				cfg, nerr := env.Config(spec)
				if nerr == nil {
					_, nerr = sim.New(cfg)
				}
				if spec.Sim.NumVCs != 0 && (verr == nil) != (nerr == nil) ||
					spec.Sim.NumVCs == 0 && nerr == nil && verr != nil {
					t.Errorf("%s %s load %v %+v: Validate = %v, sim.New = %v", ts, algo, spec.Load, spec.Sim, verr, nerr)
				}
			}
		}
	}
}

// edgeSpecs generates spec bodies without topology, algorithm or pattern:
// SimParams and loads drawn from each field's edges, 24 at random and then
// each edge alone (the rest at their defaults and load 0.1), again with
// num_vcs explicit when the edge leaves it 0.
func edgeSpecs() []scenario.Spec {
	edges := struct {
		window, count, buf, delay, speedup []int
		loads                              []float64
		metrics                            []string
	}{
		window:  []int{-1, 0, 1, 50, 1<<31 - 1<<20 - 25005, 1<<31 - 1<<20 - 25004, math.MaxInt32},
		count:   []int{-1, 0, 1, 2, 3, 4, 127, 128},
		buf:     []int{-1, 0, 1, 2, 3, 63, 64, 32767, 32768, 4161409},
		delay:   []int{-1, 0, 1, 2, 1 << 30, math.MaxInt32},
		speedup: []int{-1, 0, 1, 2, math.MaxInt32, math.MaxInt32 + 1},
		loads:   []float64{math.NaN(), math.Inf(-1), -math.SmallestNonzeroFloat64, 0, 0.3, 1, math.Nextafter(1, 2)},
		metrics: []string{"", "latency", "all", "latency,nope", "bogus"},
	}
	pick := func(r *rand.Rand, vs []int) int { return vs[r.Intn(len(vs))] }
	r := rand.New(rand.NewSource(1))
	var gen []scenario.Spec
	for i := 0; i < 24; i++ {
		gen = append(gen, scenario.Spec{Load: edges.loads[r.Intn(len(edges.loads))], Sim: scenario.SimParams{
			Warmup: pick(r, edges.window), Measure: pick(r, edges.window), Drain: pick(r, edges.window),
			NumVCs: pick(r, edges.count), BufPerPort: pick(r, edges.buf),
			RouterDelay: pick(r, edges.delay), ChannelDelay: pick(r, edges.delay), CreditDelay: pick(r, edges.delay),
			Speedup: pick(r, edges.speedup), Metrics: edges.metrics[r.Intn(len(edges.metrics))],
		}})
	}
	// Each edge alone, the rest at their defaults and load 0.1, and again
	// with num_vcs explicit, where the two must agree exactly.
	one := func(set func(*scenario.Spec)) {
		s := scenario.Spec{Load: 0.1}
		set(&s)
		gen = append(gen, s)
		if s.Sim.NumVCs == 0 {
			s.Sim.NumVCs = 4
			gen = append(gen, s)
		}
	}
	for _, v := range edges.window {
		one(func(s *scenario.Spec) { s.Sim.Warmup = v })
		one(func(s *scenario.Spec) { s.Sim.Measure = v })
		one(func(s *scenario.Spec) { s.Sim.Drain = v })
	}
	for _, v := range edges.count {
		one(func(s *scenario.Spec) { s.Sim.NumVCs = v })
		one(func(s *scenario.Spec) { s.Sim.NumVCs, s.Sim.BufPerPort = v, 1 })
	}
	for _, v := range edges.buf {
		one(func(s *scenario.Spec) { s.Sim.BufPerPort = v })
		one(func(s *scenario.Spec) { s.Sim.NumVCs, s.Sim.BufPerPort = 2, v })
	}
	for _, v := range edges.delay {
		one(func(s *scenario.Spec) { s.Sim.RouterDelay = v })
		one(func(s *scenario.Spec) { s.Sim.ChannelDelay = v })
		one(func(s *scenario.Spec) { s.Sim.CreditDelay = v })
	}
	for _, v := range edges.speedup {
		one(func(s *scenario.Spec) { s.Sim.Speedup = v })
	}
	for _, v := range edges.loads {
		one(func(s *scenario.Spec) { s.Load = v })
	}
	for _, v := range edges.metrics {
		one(func(s *scenario.Spec) { s.Sim.Metrics = v })
	}
	return gen
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

// keyExclusions are the fields reachable from Spec, as "Type.Field", that
// must stay out of Spec.Key: reviewed execution knobs outside a scenario's
// identity. Growing this list is a reviewed decision, and the field needs
// json:"-" as well.
var keyExclusions = map[string]bool{
	"SimParams.Workers": true, // ignored by the engine; kept only because cmd/sfbench sets it
}

// TestSpecKeyFields guards the sweep cache's content address field by
// field. Every field reachable from Spec must be exported, carry an
// explicit json tag, and change Spec.Key when set to a non-zero value; a
// pinned exclusion must leave the key alone instead. A field that enters
// the key by neither its tag nor its value lets two different scenarios
// share one cache entry, in every worker that reads the store.
func TestSpecKeyFields(t *testing.T) {
	base := scenario.Spec{}.Key()
	seen := map[string]bool{}
	var walk func(index []int, typ reflect.Type)
	walk = func(index []int, typ reflect.Type) {
		for i := range typ.NumField() {
			f := typ.Field(i)
			name := typ.Name() + "." + f.Name
			if !f.IsExported() {
				t.Errorf("%s is unexported: json.Marshal skips it, so it never enters Spec.Key", name)
				continue
			}
			if _, ok := f.Tag.Lookup("json"); !ok {
				t.Errorf("%s has no json tag: its place in Spec.Key must be explicit", name)
				continue
			}
			idx := slices.Concat(index, []int{i})
			if f.Type.Kind() == reflect.Struct {
				walk(idx, f.Type)
				continue
			}
			var s scenario.Spec
			v := reflect.ValueOf(&s).Elem().FieldByIndex(idx)
			switch v.Kind() {
			case reflect.Bool:
				v.SetBool(true)
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				v.SetInt(1)
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				v.SetUint(1)
			case reflect.Float32, reflect.Float64:
				v.SetFloat(1)
			case reflect.String:
				v.SetString("x")
			default:
				t.Errorf("%s has kind %s, which this test cannot set", name, v.Kind())
				continue
			}
			seen[name] = true
			changed := s.Key() != base
			switch {
			case keyExclusions[name] && changed:
				t.Errorf("%s is a pinned exclusion but changes Spec.Key", name)
			case !keyExclusions[name] && !changed:
				t.Errorf("%s leaves Spec.Key unchanged: specs differing only here would share one cache entry", name)
			}
		}
	}
	walk(nil, reflect.TypeFor[scenario.Spec]())
	for name := range keyExclusions {
		if !seen[name] {
			t.Errorf("exclusion %s names no field reachable from Spec", name)
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
