package scenario_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"sync"
	"testing"

	"slimfly/internal/obs"
	"slimfly/internal/roster"
	"slimfly/internal/scenario"
)

var keyEncodes = obs.NewCounter("scenario.key_encodes")

// uncachedKey is Spec.Key's definition without its memo.
func uncachedKey(t testing.TB, s scenario.Spec) string {
	t.Helper()
	enc, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(scenario.CacheFormat + "\n" + string(enc)))
	return hex.EncodeToString(sum[:])
}

// keySpec is a small valid spec, varied by seed.
func keySpec(seed uint64) scenario.Spec {
	return scenario.Spec{
		Topo: scenario.TopoSpec{Kind: "SF", Q: 5}, Algo: "min", Pattern: "uniform", Load: 0.3, Seed: seed,
		Sim: scenario.SimParams{Warmup: 50, Measure: 100, Drain: 500, Metrics: "latency"},
	}
}

// sharedSlot returns n specs, differing in Seed, that fall into one memo slot.
func sharedSlot(t *testing.T, n int) []scenario.Spec {
	bySlot := map[uint64][]scenario.Spec{}
	for seed := uint64(1); seed <= 1<<16; seed++ {
		s := keySpec(seed)
		slot := scenario.KeySlot(s)
		bySlot[slot] = append(bySlot[slot], s)
		if len(bySlot[slot]) == n {
			return bySlot[slot]
		}
	}
	t.Fatalf("no %d of 65 536 seeds share a memo slot", n)
	return nil
}

// countEncodes returns how many keys f encoded.
func countEncodes(f func()) int64 {
	before := keyEncodes.Value()
	f()
	return keyEncodes.Value() - before
}

// TestSpecKeyMemo checks the memoised key against its definition on
// generated specs: every roster kind, each compatible algorithm, and
// SimParams and loads at their edges, on the first call (a miss) and on
// the second (a hit).
func TestSpecKeyMemo(t *testing.T) {
	n := 0
	for _, kind := range roster.Kinds() {
		ts := scenario.TopoSpec{Kind: string(kind), N: 64, Seed: 1}
		for _, algo := range names(scenario.Algos) {
			if !scenario.Compatible(ts, algo) {
				continue
			}
			for _, s := range edgeSpecs() {
				if math.IsNaN(s.Load) || math.IsInf(s.Load, 0) {
					continue // not encodable: TestSpecKeyNaNPanics
				}
				s.Topo, s.Algo, s.Pattern, s.Seed = ts, algo, "uniform", 1
				want := uncachedKey(t, s)
				if got := s.Key(); got != want {
					t.Fatalf("%s %+v: first Key = %s, want %s", s.Label(), s.Sim, got, want)
				}
				var again string
				if enc := countEncodes(func() { again = s.Key() }); enc != 0 || again != want {
					t.Fatalf("%s %+v: second Key = %s after %d encodes, want %s from the memo", s.Label(), s.Sim, again, enc, want)
				}
				n++
			}
		}
	}
	if n < 1000 {
		t.Fatalf("only %d generated specs", n)
	}
}

// TestSpecKeySignedZero pins that a load of -0 and one of 0, which ==
// calls equal, keep their own keys even when they share a memo slot.
func TestSpecKeySignedZero(t *testing.T) {
	for seed := uint64(1); seed <= 1<<16; seed++ {
		pos, neg := keySpec(seed), keySpec(seed)
		pos.Load, neg.Load = 0, math.Copysign(0, -1)
		if scenario.KeySlot(pos) != scenario.KeySlot(neg) {
			continue
		}
		kp, kn := pos.Key(), neg.Key()
		if kp != uncachedKey(t, pos) || kn != uncachedKey(t, neg) {
			t.Fatalf("seed %d: keys %s (0) and %s (-0) differ from their encodings", seed, kp, kn)
		}
		if kp == kn {
			t.Fatalf("seed %d: loads 0 and -0 share key %s", seed, kp)
		}
		return
	}
	t.Fatal("no seed of 65 536 puts loads 0 and -0 in one memo slot")
}

// TestSpecKeyEviction pins that two specs sharing a slot evict each other
// and each still gets its own key, encoding it again on every turn.
func TestSpecKeyEviction(t *testing.T) {
	pair := sharedSlot(t, 2)
	want := []string{uncachedKey(t, pair[0]), uncachedKey(t, pair[1])}
	if want[0] == want[1] {
		t.Fatal("two seeds share one key")
	}
	for turn := range 6 {
		s := pair[turn%2]
		var got string
		if enc := countEncodes(func() { got = s.Key() }); got != want[turn%2] || enc != 1 {
			t.Errorf("turn %d: Key = %s after %d encodes, want %s after 1", turn, got, enc, want[turn%2])
		}
	}
}

// TestSpecKeyNaNPanics pins that a NaN load, which equals nothing and so
// never hits the memo, still panics in the encoder every time.
func TestSpecKeyNaNPanics(t *testing.T) {
	s := keySpec(1)
	s.Load = math.NaN()
	for call := range 2 {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("call %d: Key of a NaN load did not panic", call)
				}
			}()
			s.Key()
		}()
	}
}

// TestSpecKeyIgnoresWorkers pins that specs differing only in Workers
// share one key and one encode.
func TestSpecKeyIgnoresWorkers(t *testing.T) {
	s := keySpec(7)
	w := s
	w.Sim.Workers = 4
	var a, b string
	if enc := countEncodes(func() { a, b = s.Key(), w.Key() }); enc > 1 {
		t.Errorf("%d encodes for specs differing only in Workers, want at most 1", enc)
	}
	if a != b || a != uncachedKey(t, s) {
		t.Errorf("Workers 0 and 4 give keys %s and %s, want %s", a, b, uncachedKey(t, s))
	}
}

// TestSpecKeyHitAllocs pins that a memo hit allocates nothing and encodes
// nothing.
func TestSpecKeyHitAllocs(t *testing.T) {
	s := keySpec(11)
	s.Key()
	var allocs float64
	if enc := countEncodes(func() { allocs = testing.AllocsPerRun(100, func() { s.Key() }) }); enc != 0 || allocs != 0 {
		t.Errorf("a memo hit made %v allocations and %d encodes, want 0 and 0", allocs, enc)
	}
}

// TestSpecKeyMemoRace calls Key from 8 goroutines on four specs that share
// one slot, so pairs are swapped in while others read them.
func TestSpecKeyMemoRace(t *testing.T) {
	specs := sharedSlot(t, 4)
	want := make([]string, len(specs))
	for i, s := range specs {
		want[i] = uncachedKey(t, s)
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				k := (g + i) % len(specs)
				if got := specs[k].Key(); got != want[k] {
					t.Errorf("goroutine %d: Key of seed %d = %s, want %s", g, specs[k].Seed, got, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkSpecKey times Key on one repeated spec (hit) and on a new spec
// every call (miss: the encoding and the swap into the slot).
func BenchmarkSpecKey(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		s := keySpec(1)
		s.Key()
		b.ReportAllocs()
		for b.Loop() {
			s.Key()
		}
	})
	b.Run("miss", func(b *testing.B) {
		s := keySpec(1)
		b.ReportAllocs()
		for b.Loop() {
			s.Seed++
			s.Key()
		}
	})
}
