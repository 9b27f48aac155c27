package sweep

import (
	"context"
	"fmt"
	"iter"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"slimfly/internal/scenario"
	"slimfly/internal/sim"
)

// fig6Grid is the Figure 6 grid cmd/sfbench's fig6_pool runs (exp.Fig6Specs
// for both patterns at its scale, the latency collector selected), written
// out here because exp imports this package: 36 jobs over SF, DF and FT-3.
func fig6Grid() []*Spec {
	sp := SimParams{Warmup: 100, Measure: 300, Drain: 4000, Metrics: "latency"}
	var specs []*Spec
	for _, pattern := range []string{"uniform", "worstcase"} {
		for _, k := range []struct {
			kind  string
			algos []string
		}{{"SF", []string{"min", "val", "ugal-l", "ugal-g"}}, {"DF", []string{"ugal-l"}}, {"FT-3", []string{"anca"}}} {
			specs = append(specs, &Spec{
				Name:     "fig6-" + pattern + "-" + k.kind,
				Topos:    []TopoSpec{{Kind: k.kind, N: 600}},
				Algos:    k.algos,
				Patterns: []string{pattern},
				Loads:    []float64{0.2, 0.5, 0.8},
				Seeds:    []uint64{1},
				Sim:      sp,
			})
		}
	}
	return specs
}

// memStore is an in-memory Store filled before it is read: a warm pass
// with no file-system cost.
type memStore map[string]Entry

func (m memStore) Get(key string) (Entry, bool) { e, ok := m[key]; return e, ok }
func (m memStore) Raw(string) ([]byte, bool)    { return nil, false }
func (m memStore) Put(key string, e Entry) error {
	m[key] = e
	return nil
}
func (memStore) Keys() iter.Seq2[string, error] { return func(func(string, error) bool) {} }

// warmStores returns jobs' entries stored in a Cache under dir and in a
// memStore: a fabricated result per job, so that every lookup is a hit
// without a simulation run first.
func warmStores(tb testing.TB, jobs []Job, dir string) []struct {
	name  string
	store Store
} {
	c, err := OpenCache(dir)
	if err != nil {
		tb.Fatal(err)
	}
	m := memStore{}
	for i, j := range jobs {
		e := Entry{Job: j, Result: sim.Result{Injected: int64(i + 1), Delivered: int64(i + 1)}}
		for _, s := range []Store{c, m} {
			if err := s.Put(j.Key(), e); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return []struct {
		name  string
		store Store
	}{{"cache", c}, {"mem", m}}
}

// BenchmarkExpandAll times the expansion of the Figure 6 grid.
func BenchmarkExpandAll(b *testing.B) {
	specs := fig6Grid()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ExpandAll(specs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunJobsWarm times one warm pass of the Figure 6 grid through
// the pool: 36 hits on a filled Cache or on an in-memory Store, at 1 and
// 2 workers. A pass is one op.
func BenchmarkRunJobsWarm(b *testing.B) {
	jobs, err := ExpandAll(fig6Grid())
	if err != nil {
		b.Fatal(err)
	}
	env := NewEnv()
	for _, st := range warmStores(b, jobs, b.TempDir()) {
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/w%d", st.name, w), func(b *testing.B) {
				opts := Options{Workers: w, Store: st.store}
				b.ReportAllocs()
				for b.Loop() {
					if _, s, err := RunJobs(context.Background(), jobs, env, opts); err != nil || s.Cached != len(jobs) {
						b.Fatalf("stats %+v, err %v", s, err)
					}
				}
			})
		}
	}
}

// TestValidateSimBlockOnce: Validate checks the sim block with the first
// load only. Over generated load lists -- NaN, -0.1 and 1.5 in every
// position, alone and together -- and sim blocks, good and with each
// field broken in turn, its error is the first one the check of every
// load with the block gives.
func TestValidateSimBlockOnce(t *testing.T) {
	ref := func(s *Spec) error {
		for _, l := range s.Loads {
			if err := (scenario.Spec{Load: l, Sim: s.Sim}).CheckLimits(); err != nil {
				return fmt.Errorf("sweep: spec %q: %w", s.Name, err)
			}
		}
		return nil
	}
	sims := []SimParams{{}, {Warmup: 50, Measure: 100, Drain: 500, Metrics: "latency,channels"},
		{NumVCs: 8, BufPerPort: 4}, {Warmup: 1<<31 - 1}, {Metrics: "latency,nope"}}
	for i := range reflect.TypeFor[SimParams]().NumField() {
		var sp SimParams
		if f := reflect.ValueOf(&sp).Elem().Field(i); f.Kind() == reflect.Int {
			f.SetInt(-1)
			sims = append(sims, sp)
		}
	}
	bad := []float64{math.NaN(), -0.1, 1.5}
	good := []float64{0, 0.3, 1}
	checked, failed := 0, 0
	for _, sp := range sims {
		for n := 1; n <= 4; n++ {
			for mask := range 1 << n { // bit i set: load i is bad
				loads := make([]float64, n)
				for i := range loads {
					if mask>>i&1 == 1 {
						loads[i] = bad[(i+mask)%len(bad)]
					} else {
						loads[i] = good[(i+n)%len(good)]
					}
				}
				s := &Spec{Name: "v", Topos: []TopoSpec{{Kind: "SF", Q: 5}}, Algos: []string{"min"}, Loads: loads, Sim: sp}
				got, want := s.Validate(), ref(s)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("loads %v, sim %+v: Validate = %v, want %v", loads, sp, got, want)
				}
				checked++
				if want != nil {
					failed++
				}
			}
		}
	}
	if failed == 0 || failed == checked {
		t.Fatalf("%d of %d generated specs fail: the generator covers only one side", failed, checked)
	}
}

// expandRef is the expansion spelled out: validate, then the nested loops
// appended to a slice grown per spec, concatenated.
func expandRef(specs []*Spec) ([]Job, error) {
	var all []Job
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		patterns, seeds := s.Patterns, s.Seeds
		if len(patterns) == 0 {
			patterns = []string{"uniform"}
		}
		if len(seeds) == 0 {
			seeds = []uint64{1}
		}
		var jobs []Job
		for _, tp := range s.Topos {
			for _, p := range patterns {
				for _, a := range s.Algos {
					if !scenario.Compatible(tp, a) {
						continue
					}
					for _, l := range s.Loads {
						for _, sd := range seeds {
							jobs = append(jobs, Job{Topo: tp, Algo: a, Pattern: p, Load: l, Seed: sd, Sim: s.Sim})
						}
					}
				}
			}
		}
		if len(jobs) == 0 {
			return nil, fmt.Errorf("sweep: spec %q expands to no compatible jobs", s.Name)
		}
		all = append(all, jobs...)
	}
	return all, nil
}

// TestExpandAllMatchesRef: over generated spec lists -- incompatible
// pairs, default patterns and seeds, a spec that expands to nothing and
// one that does not validate, anywhere in the list -- ExpandAll and each
// spec's Expand give expandRef's jobs, in one slice of exactly their
// number, or its error. The Figure 6 grid expands in one allocation.
func TestExpandAllMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewPCG(49, 1))
	pick := func(from []string) []string {
		var out []string
		for _, s := range from {
			if rng.IntN(2) == 0 {
				out = append(out, s)
			}
		}
		return out
	}
	topos := []TopoSpec{{Kind: "SF", Q: 5}, {Kind: "FT-3", N: 64}, {Kind: "DF", N: 72}}
	gen := func(i int) *Spec {
		s := &Spec{Name: fmt.Sprint("g", i), Sim: SimParams{Warmup: 10 * rng.IntN(3)}}
		for len(s.Topos) == 0 {
			for _, tp := range topos {
				if rng.IntN(2) == 0 {
					s.Topos = append(s.Topos, tp)
				}
			}
		}
		for len(s.Algos) == 0 {
			s.Algos = pick([]string{"min", "anca", "val", "ugal-l"})
		}
		s.Patterns = pick([]string{"uniform", "shift", "worstcase"}) // often none: the default
		for range 1 + rng.IntN(3) {
			s.Loads = append(s.Loads, float64(rng.IntN(11))/10)
		}
		for range rng.IntN(3) {
			s.Seeds = append(s.Seeds, rng.Uint64N(9)+1)
		}
		switch rng.IntN(8) {
		case 0: // anca alone on no fat tree: no compatible pair
			s.Topos, s.Algos = []TopoSpec{{Kind: "SF", Q: 5}}, []string{"anca"}
		case 1:
			s.Loads[rng.IntN(len(s.Loads))] = 1.5
		}
		return s
	}
	errs := 0
	for trial := range 300 {
		specs := make([]*Spec, 1+rng.IntN(4))
		for i := range specs {
			specs[i] = gen(i)
		}
		want, wantErr := expandRef(specs)
		got, err := ExpandAll(specs)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: ExpandAll = %d jobs, %v; want %d jobs, %v", trial, len(got), err, len(want), wantErr)
		}
		if len(got) != cap(got) {
			t.Errorf("trial %d: %d jobs in a slice of capacity %d", trial, len(got), cap(got))
		}
		if err != nil {
			errs++
		}
		for _, s := range specs {
			want, wantErr := expandRef([]*Spec{s})
			got, err := s.Expand()
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, spec %+v: Expand = %d jobs, %v; want %d jobs, %v", trial, s, len(got), err, len(want), wantErr)
			}
		}
	}
	if errs == 0 || errs == 300 {
		t.Fatalf("%d of 300 generated lists fail: the generator covers only one side", errs)
	}

	grid := fig6Grid()
	if jobs, err := ExpandAll(grid); err != nil || len(jobs) != 36 {
		t.Fatalf("Figure 6 grid: %d jobs, %v; want 36", len(jobs), err)
	}
	if a := testing.AllocsPerRun(50, func() { ExpandAll(grid) }); a != 1 {
		t.Errorf("ExpandAll of the Figure 6 grid: %v allocs, want 1", a)
	}
}

// TestRunJobsWarmAllocs: a warm pass of the Figure 6 grid allocates at
// most a fixed handful per pass plus, on a Cache, what os.Stat needs per
// hit (two allocations here); an in-memory Store's hits allocate nothing.
// The bounds are what a pass measured, with a little room. Results are
// positional and identical at 1 and 2 workers.
func TestRunJobsWarmAllocs(t *testing.T) {
	jobs, err := ExpandAll(fig6Grid())
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	perJob := map[string]float64{"cache": 2.5, "mem": 0.5}
	for _, st := range warmStores(t, jobs, t.TempDir()) {
		var first []JobResult
		for _, w := range []int{1, 2} {
			opts := Options{Workers: w, Store: st.store}
			res, s, err := RunJobs(context.Background(), jobs, env, opts)
			if err != nil || s != (Stats{Total: len(jobs), Cached: len(jobs)}) {
				t.Fatalf("%s/w%d: stats %+v, err %v", st.name, w, s, err)
			}
			for i, jr := range res {
				if jr.Job != jobs[i] || jr.Key != jobs[i].Key() || jr.Result.Injected != int64(i+1) {
					t.Fatalf("%s/w%d: result %d is %s's, want %s's", st.name, w, i, jr.Job.Label(), jobs[i].Label())
				}
			}
			if first == nil {
				first = res
			} else if !reflect.DeepEqual(res, first) {
				t.Errorf("%s: results at 2 workers differ from those at 1", st.name)
			}
			a := testing.AllocsPerRun(20, func() { RunJobs(context.Background(), jobs, env, opts) })
			if a > perJob[st.name]*float64(len(jobs)) {
				t.Errorf("%s/w%d: a warm pass of %d jobs makes %v allocs, want at most %v per job",
					st.name, w, len(jobs), a, perJob[st.name])
			}
		}
	}
}
