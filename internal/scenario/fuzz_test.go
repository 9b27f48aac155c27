package scenario_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"slimfly/internal/scenario"
	"slimfly/internal/sim"
)

// fuzzEnv memoises topologies across fuzz iterations; the fuzzer folds
// its seed space onto a handful of construction seeds so repeated inputs
// hit the cache instead of rebuilding networks.
var fuzzEnv = struct {
	sync.Mutex
	envs map[uint64]*scenario.Env
}{envs: map[uint64]*scenario.Env{}}

func envFor(seed uint64) *scenario.Env {
	fuzzEnv.Lock()
	defer fuzzEnv.Unlock()
	e := fuzzEnv.envs[seed]
	if e == nil {
		e = scenario.NewEnv()
		fuzzEnv.envs[seed] = e
	}
	return e
}

// FuzzTargetPortContract feeds random (topology kind, algorithm, seed,
// load) tuples through the registry and runs a short simulation on each.
// The engine checks every TargetPort answer against [0, deg) and panics
// with the descriptive misroute diagnostic on a violation -- in the
// allocator scan and at the static reveal alike -- so a registry algorithm
// can never write out of range into the allocator scratch or another
// port's queues and credits silently. The fuzz asserts that no registered combination trips
// that diagnostic (a misroute here is a real routing bug) and that no other
// panic escapes (which would mean an unchecked path around the guard).
func FuzzTargetPortContract(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint64(1), 0.3)
	f.Add(uint8(1), uint8(2), uint64(7), 0.7)
	f.Add(uint8(2), uint8(4), uint64(3), 0.95)
	f.Add(uint8(5), uint8(1), uint64(11), 0.05)
	f.Add(uint8(255), uint8(255), uint64(0), 1.0)

	kinds := names(scenario.Topologies)
	algos := names(scenario.Algos)

	f.Fuzz(func(t *testing.T, kindIdx, algoIdx uint8, seed uint64, load float64) {
		kind := kinds[int(kindIdx)%len(kinds)]
		algo := algos[int(algoIdx)%len(algos)]
		if math.IsNaN(load) || math.IsInf(load, 0) {
			load = 0.5
		}
		load = math.Abs(load)
		if load > 1 {
			load = math.Mod(load, 1)
		}
		topoSeed := seed % 4 // fold onto a few memoised constructions
		spec := scenario.Spec{
			Topo:    scenario.TopoSpec{Kind: kind, N: 60, Seed: topoSeed},
			Algo:    algo,
			Pattern: "uniform",
			Load:    load,
			Seed:    seed,
			Sim:     scenario.SimParams{Warmup: 20, Measure: 40, Drain: 80},
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("registry-derived spec invalid: %v", err)
		}
		cfg, err := envFor(topoSeed).Config(spec)
		var ie *scenario.IncompatibleError
		if errors.As(err, &ie) {
			t.Skip(ie.Reason) // e.g. ANCA on a non-fat-tree
		}
		if err != nil {
			t.Skipf("construction infeasible at this size: %v", err)
		}
		defer func() {
			if p := recover(); p != nil {
				msg := fmt.Sprint(p)
				if strings.Contains(msg, "invalid output port") {
					t.Fatalf("registry algorithm %s misrouted on %s (caught by the engine guard): %s", algo, kind, msg)
				}
				t.Fatalf("panic outside the misroute guard (silent-corruption path?): %s", msg)
			}
		}()
		res, _, err := sim.RunSummary(cfg)
		if err != nil {
			t.Fatalf("sim.RunSummary: %v", err)
		}
		if res.Delivered < 0 || res.Injected < 0 || res.Delivered > res.Injected {
			t.Fatalf("inconsistent result: delivered %d of %d", res.Delivered, res.Injected)
		}
	})
}
