package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(123), NewRNG(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(124)
	same := 0
	a = NewRNG(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds collided %d times", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(1)
	for _, n := range []int{1, 2, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	for v, c := range counts {
		if c < draws/n*8/10 || c > draws/n*12/10 {
			t.Errorf("value %d drawn %d times, expected ~%d", v, c, draws/n)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(2)
	sum := 0.0
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v", f)
		}
		sum += f
	}
	if mean := sum / 10000; mean < 0.47 || mean > 0.53 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestBernoulli(t *testing.T) {
	r := NewRNG(3)
	hits := 0
	for i := 0; i < 10000; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if hits < 2700 || hits > 3300 {
		t.Errorf("Bernoulli(0.3) hit %d/10000", hits)
	}
}

func TestPermIsPermutation(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		p := r.Perm(20)
		seen := make([]bool, 20)
		for _, v := range p {
			if v < 0 || v >= 20 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := NewRNG(9)
	s := []int{1, 2, 3, 4, 5}
	r.Shuffle(s)
	sum := 0
	for _, v := range s {
		sum += v
	}
	if sum != 15 {
		t.Errorf("shuffle lost elements: %v", s)
	}
}

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Errorf("mean = %v", Mean(xs))
	}
	if v := Variance(xs); math.Abs(v-32.0/7.0) > 1e-12 {
		t.Errorf("variance = %v, want %v", v, 32.0/7.0)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("degenerate cases wrong")
	}
}

func TestCI95(t *testing.T) {
	if !math.IsInf(CI95HalfWidth([]float64{1}), 1) {
		t.Error("CI of single sample should be infinite")
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i % 2)
	}
	ci := CI95HalfWidth(xs)
	want := 1.96 * StdDev(xs) / 10
	if math.Abs(ci-want) > 1e-12 {
		t.Errorf("ci = %v, want %v", ci, want)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{3, 1, 2})
	if s.N != 3 || s.Min != 1 || s.Max != 3 || s.Mean != 2 {
		t.Errorf("summary = %+v", s)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("empty summary = %+v", z)
	}
}

// TestRNGJump pins the stream-derivation contract the parallel simulator
// builds on: jumping is deterministic (two equal states jump to equal
// states), a jumped stream diverges from its origin immediately, and
// successive jumps from one seed yield pairwise-distinct streams -- the
// per-router allocation streams must never collide.
func TestRNGJump(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	a.Jump()
	b.Jump()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Jump is not deterministic")
		}
	}

	base := NewRNG(42)
	jumped := NewRNG(42)
	jumped.Jump()
	same := 0
	for i := 0; i < 1000; i++ {
		if base.Uint64() == jumped.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("jumped stream collides with its origin in %d of 1000 draws", same)
	}

	// Distinct streams from successive jumps (the per-router scheme).
	streams := make([]RNG, 8)
	jr := NewRNG(7)
	for i := range streams {
		jr.Jump()
		streams[i] = *jr
	}
	firsts := map[uint64]int{}
	for i := range streams {
		v := streams[i].Uint64()
		if prev, dup := firsts[v]; dup {
			t.Fatalf("streams %d and %d start identically", prev, i)
		}
		firsts[v] = i
	}
}
