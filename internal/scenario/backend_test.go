package scenario_test

// Backend selection tests: the registry-driven parity wall (every kind
// that advertises an algebraic form must produce a computed backend that
// is byte-equal to BFS tables), the auto policy's memory-budget switch,
// and the SF q=43 guards -- the network the paper's scaling claim needs
// and the one the O(n^2) tables cannot serve (9*n*n ~ 123 MiB).

import (
	"errors"
	"runtime"
	"testing"

	"slimfly/internal/obs"
	"slimfly/internal/roster"
	"slimfly/internal/route"
	"slimfly/internal/scenario"
	"slimfly/internal/sim"
)

// TestBackendParityWall cross-checks, for every registered topology kind
// at small size, that (a) the Algebraic registry flag matches the built
// instance's route.Oracle capability, and (b) where the capability
// exists, the computed backend agrees with BFS tables on every distance
// and port.
func TestBackendParityWall(t *testing.T) {
	for _, kind := range names(scenario.Topologies) {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			ts := scenario.TopoSpec{Kind: kind, N: 96, Seed: 1}
			tp, tables, err := scenario.BuildRouting(ts, route.PolicyTables, 0)
			if err != nil {
				t.Fatalf("tables build: %v", err)
			}
			_, isOracle := tp.(route.Oracle)
			if isOracle != scenario.Algebraic(kind) {
				t.Fatalf("registry Algebraic=%v but instance oracle capability=%v", scenario.Algebraic(kind), isOracle)
			}
			_, forced, err := scenario.BuildRouting(ts, route.PolicyComputed, 0)
			if err != nil {
				t.Fatalf("computed build: %v", err)
			}
			if !isOracle {
				// No closed form: the computed policy must fall back to
				// tables rather than fail.
				if forced.Backend() != "tables" {
					t.Fatalf("irregular kind resolved backend %q, want tables fallback", forced.Backend())
				}
				return
			}
			if forced.Backend() != "computed" {
				t.Fatalf("algebraic kind resolved backend %q, want computed", forced.Backend())
			}
			if got, want := forced.MaxDistance(), tables.MaxDistance(); got != want {
				t.Fatalf("MaxDistance: computed %d, tables %d", got, want)
			}
			n := tp.Graph().N()
			for u := 0; u < n; u++ {
				for d := 0; d < n; d++ {
					if tables.Distance(u, d) != forced.Distance(u, d) {
						t.Fatalf("Distance(%d,%d): computed %d, tables %d", u, d, forced.Distance(u, d), tables.Distance(u, d))
					}
					if tables.NextPort(u, d) != forced.NextPort(u, d) {
						t.Fatalf("NextPort(%d,%d): computed %d, tables %d", u, d, forced.NextPort(u, d), tables.NextPort(u, d))
					}
				}
			}
		})
	}
}

// TestVCCountWall pins the virtual channels the engine gives every
// roster kind x compatible algorithm by default: the longest path of the
// algorithm's path set on the built network, max(Paths().MaxHops(D), 1),
// on BFS tables and, where the kind is algebraic, on the computed backend.
// The literals are the counts the per-algorithm formulas they replaced
// resolved to (D for MIN, 2D for the Valiant family, 4 for ANCA), so no
// golden or generated hash can move with the derivation.
func TestVCCountWall(t *testing.T) {
	want := map[roster.Kind]map[string]int{
		roster.SF:   {"min": 2, "val": 4, "val3": 4, "ugal-l": 4, "ugal-g": 4},
		roster.DF:   {"min": 3, "val": 6, "val3": 6, "ugal-l": 6, "ugal-g": 6},
		roster.FT3:  {"min": 4, "val": 8, "val3": 8, "ugal-l": 8, "ugal-g": 8, "anca": 4},
		roster.FBF3: {"min": 3, "val": 6, "val3": 6, "ugal-l": 6, "ugal-g": 6},
		roster.T3D:  {"min": 6, "val": 12, "val3": 12, "ugal-l": 12, "ugal-g": 12},
		roster.T5D:  {"min": 5, "val": 10, "val3": 10, "ugal-l": 10, "ugal-g": 10},
		roster.HC:   {"min": 6, "val": 12, "val3": 12, "ugal-l": 12, "ugal-g": 12},
		roster.LHHC: {"min": 3, "val": 6, "val3": 6, "ugal-l": 6, "ugal-g": 6},
		roster.DLN:  {"min": 5, "val": 10, "val3": 10, "ugal-l": 10, "ugal-g": 10},
	}
	for _, kind := range roster.Kinds() {
		ts := scenario.TopoSpec{Kind: string(kind), N: 64, Seed: 1}
		policies := []route.Policy{route.PolicyTables}
		if scenario.Algebraic(string(kind)) {
			policies = append(policies, route.PolicyComputed)
		}
		for _, policy := range policies {
			tp, rt, err := scenario.NewEnv(scenario.WithRouteBackend(policy)).Topo(ts)
			if err != nil {
				t.Fatalf("%s %s: %v", kind, policy, err)
			}
			if rt.Backend() != string(policy) {
				t.Fatalf("%s: policy %s resolved backend %q", kind, policy, rt.Backend())
			}
			var algos []string
			for _, name := range names(scenario.Algos) {
				if !scenario.Compatible(ts, name) {
					continue
				}
				algos = append(algos, name)
				a, err := scenario.BuildAlgo(name, tp)
				if err != nil {
					t.Fatalf("%s %s: %v", kind, name, err)
				}
				if got := max(a.Paths().MaxHops(rt.MaxDistance()), 1); got != want[kind][name] {
					t.Errorf("%s %s %s (diameter %d): %d VCs, want %d", kind, policy, name, rt.MaxDistance(), got, want[kind][name])
				}
			}
			if len(algos) != len(want[kind]) {
				t.Errorf("%s: compatible algorithms %v, table lists %d", kind, algos, len(want[kind]))
			}
		}
	}
}

// TestEnvAutoBudgetSwitch pins the auto policy's pivot: the same spec
// resolves to tables under the Env's default budget and to the computed
// backend when the 9*n*n estimate exceeds the budget BuildRouting is given.
func TestEnvAutoBudgetSwitch(t *testing.T) {
	ts := scenario.TopoSpec{Kind: "SF", Q: 17}

	envBig := scenario.NewEnv() // default 64 MiB budget; q=17 needs ~1 MiB
	_, rt, err := envBig.Topo(ts)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Backend() != "tables" || rt.TableBytes() == 0 {
		t.Fatalf("under budget: backend %q table_bytes %d, want tables", rt.Backend(), rt.TableBytes())
	}

	_, rt, err = scenario.BuildRouting(ts, route.PolicyAuto, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Backend() != "computed" || rt.TableBytes() != 0 {
		t.Fatalf("over budget: backend %q table_bytes %d, want computed", rt.Backend(), rt.TableBytes())
	}
}

// heapDelta runs f and returns the growth of the live heap across it.
func heapDelta(f func()) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestQ43TablesRejected pins the structured rejection: forcing BFS
// tables for SF q=43 (3698 routers, ~123 MiB of 9*n*n state) must fail
// fast with a *route.BudgetError naming the estimate -- before any BFS
// or table allocation happens.
func TestQ43TablesRejected(t *testing.T) {
	_, _, err := scenario.BuildRouting(scenario.TopoSpec{Kind: "SF", Q: 43, P: 4}, route.PolicyTables, 0)
	var be *route.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *route.BudgetError", err)
	}
	const nr = 2 * 43 * 43
	if be.Routers != nr || be.EstimatedBytes != route.EstimateTableBytes(nr) || be.Budget != route.DefaultTableBudget {
		t.Fatalf("BudgetError fields: %+v", be)
	}
}

// TestQ43AutoBuildUnderBudget is the memory-budget guard for the build
// path: resolving the SF q=43 network under backend=auto must produce
// the computed backend and grow the live heap far less than the 123 MiB
// the tables would cost. The 64 MiB pin (the auto policy's own table
// budget) leaves ~60x headroom over the measured ~1 MiB graph while
// still catching any accidental n*n materialization.
func TestQ43AutoBuildUnderBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the q=43 network; skipped in -short")
	}
	env := scenario.NewEnv()
	var rt route.Router
	delta := heapDelta(func() {
		var err error
		_, rt, err = env.Topo(scenario.TopoSpec{Kind: "SF", Q: 43, P: 4})
		if err != nil {
			t.Fatal(err)
		}
	})
	if rt.Backend() != "computed" {
		t.Fatalf("backend %q, want computed (estimate %d over budget %d)",
			rt.Backend(), route.EstimateTableBytes(rt.Graph().N()), route.DefaultTableBudget)
	}
	if rt.TableBytes() != 0 {
		t.Fatalf("computed backend reports %d table bytes, want 0", rt.TableBytes())
	}
	const budget = 64 << 20
	if delta > budget {
		t.Fatalf("env build grew the heap by %d bytes, budget %d", delta, budget)
	}
	runtime.KeepAlive(env)
}

// TestQ43EndToEnd runs the acceptance scenario: SF q=43 (3698 routers --
// the scale where BFS tables stop fitting) built and simulated end to
// end under backend=auto, with the whole thing staying under a pinned
// heap budget. Concentration is held at p=4 so endpoint-side state
// (injection queues, packet buffers) doesn't swamp what the test is
// guarding: that routing state no longer scales with n^2.
func TestQ43EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the q=43 network; skipped in -short")
	}
	env := scenario.NewEnv()
	var res sim.Result
	delta := heapDelta(func() {
		cfg, err := env.Config(scenario.Spec{
			Topo: scenario.TopoSpec{Kind: "SF", Q: 43, P: 4},
			Algo: "min", Pattern: "uniform",
			Load: 0.02, Seed: 7,
			Sim: scenario.SimParams{Warmup: 30, Measure: 50, Drain: 300, NumVCs: 2, BufPerPort: 8},
		})
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Router.Backend() != "computed" {
			t.Fatalf("backend %q, want computed", cfg.Router.Backend())
		}
		res, _, err = sim.RunSummary(cfg)
		if err != nil {
			t.Fatal(err)
		}
	})
	if res.Delivered <= 0 {
		t.Fatalf("q=43 run delivered no packets: %+v", res)
	}
	const budget = 256 << 20 // tables alone would be ~123 MiB before any sim state
	if delta > budget {
		t.Fatalf("q=43 end-to-end grew the heap by %d bytes, budget %d", delta, budget)
	}
	runtime.KeepAlive(env)
}

// TestBuildRouteTelemetry: BuildRouting times the routing backend on its
// own (scenario.build_route, one observation per call), and a tables build
// leaves the number of levels it swept -- the diameter -- in
// route.tables_levels.
func TestBuildRouteTelemetry(t *testing.T) {
	span, levels := obs.NewTimer("scenario.build_route"), obs.NewGauge("route.tables_levels")
	for _, ts := range []scenario.TopoSpec{{Kind: "SF", Q: 5}, {Kind: "T3D", N: 64}} {
		before := span.Stats().Count
		_, rt, err := scenario.BuildRouting(ts, route.PolicyTables, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := span.Stats().Count - before; got != 1 {
			t.Errorf("%s: scenario.build_route observed %d times by one BuildRouting", ts, got)
		}
		if got := levels.Value(); got != int64(rt.MaxDistance()) || got < 2 {
			t.Errorf("%s: route.tables_levels = %d, the tables' diameter is %d", ts, got, rt.MaxDistance())
		}
	}
}
