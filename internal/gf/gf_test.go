package gf

import (
	"testing"
	"testing/quick"

	"slimfly/internal/musttest"
)

func TestPrimePower(t *testing.T) {
	cases := []struct {
		q, p, n int
		ok      bool
	}{
		{2, 2, 1, true}, {3, 3, 1, true}, {4, 2, 2, true}, {5, 5, 1, true},
		{6, 0, 0, false}, {7, 7, 1, true}, {8, 2, 3, true}, {9, 3, 2, true},
		{10, 0, 0, false}, {12, 0, 0, false}, {16, 2, 4, true},
		{25, 5, 2, true}, {27, 3, 3, true}, {32, 2, 5, true},
		{49, 7, 2, true}, {121, 11, 2, true}, {1, 0, 0, false},
		{0, 0, 0, false}, {-4, 0, 0, false}, {100, 0, 0, false},
	}
	for _, c := range cases {
		p, n, ok := PrimePower(c.q)
		if ok != c.ok || (ok && (p != c.p || n != c.n)) {
			t.Errorf("PrimePower(%d) = (%d,%d,%v), want (%d,%d,%v)", c.q, p, n, ok, c.p, c.n, c.ok)
		}
	}
}

func TestNewRejectsNonPrimePower(t *testing.T) {
	for _, q := range []int{6, 10, 12, 15, 100} {
		if _, err := New(q); err == nil {
			t.Errorf("New(%d) succeeded, want error", q)
		}
	}
}

// fieldOrders covers prime fields and every extension-field order the Slim
// Fly library of configurations can need.
var fieldOrders = []int{2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 32, 37, 41, 43, 47, 49}

func TestFieldAxioms(t *testing.T) {
	for _, q := range fieldOrders {
		f := musttest.Must(New(q))
		if f.Q != q {
			t.Fatalf("GF(%d): Q = %d", q, f.Q)
		}
		for a := 0; a < q; a++ {
			if f.Add(a, 0) != a {
				t.Fatalf("GF(%d): %d + 0 != %d", q, a, a)
			}
			if f.Add(a, f.Neg(a)) != 0 {
				t.Fatalf("GF(%d): %d + (-%d) != 0", q, a, a)
			}
			if f.Mul(a, 1) != a {
				t.Fatalf("GF(%d): %d * 1 != %d", q, a, a)
			}
			if a != 0 {
				if f.Mul(a, f.Inv(a)) != 1 {
					t.Fatalf("GF(%d): %d * inv(%d) != 1", q, a, a)
				}
			}
			for b := 0; b < q; b++ {
				if f.Add(a, b) != f.Add(b, a) {
					t.Fatalf("GF(%d): add not commutative at %d,%d", q, a, b)
				}
				if f.Mul(a, b) != f.Mul(b, a) {
					t.Fatalf("GF(%d): mul not commutative at %d,%d", q, a, b)
				}
				if f.Sub(a, b) != f.Add(a, f.Neg(b)) {
					t.Fatalf("GF(%d): sub inconsistent at %d,%d", q, a, b)
				}
			}
		}
	}
}

func TestFieldAssociativityAndDistributivity(t *testing.T) {
	// Exhaustive on small fields, sampled on the larger ones.
	for _, q := range []int{4, 5, 8, 9, 16, 25, 27} {
		f := musttest.Must(New(q))
		for a := 0; a < q; a++ {
			for b := 0; b < q; b++ {
				for c := 0; c < q; c++ {
					if f.Add(f.Add(a, b), c) != f.Add(a, f.Add(b, c)) {
						t.Fatalf("GF(%d): add not associative", q)
					}
					if f.Mul(f.Mul(a, b), c) != f.Mul(a, f.Mul(b, c)) {
						t.Fatalf("GF(%d): mul not associative", q)
					}
					if f.Mul(a, f.Add(b, c)) != f.Add(f.Mul(a, b), f.Mul(a, c)) {
						t.Fatalf("GF(%d): not distributive", q)
					}
				}
			}
		}
	}
}

func TestPrimitiveElement(t *testing.T) {
	for _, q := range fieldOrders {
		f := musttest.Must(New(q))
		xi := f.PrimitiveElement()
		seen := make(map[int]bool)
		v := 1
		for i := 0; i < q-1; i++ {
			if seen[v] {
				t.Fatalf("GF(%d): xi=%d repeats before covering all non-zero elements", q, xi)
			}
			seen[v] = true
			v = f.Mul(v, xi)
		}
		if len(seen) != q-1 {
			t.Fatalf("GF(%d): primitive element %d generates %d elements, want %d", q, xi, len(seen), q-1)
		}
		if v != 1 {
			t.Fatalf("GF(%d): xi^(q-1) = %d, want 1", q, v)
		}
	}
}

func TestPrimitiveElementHoffmanSingleton(t *testing.T) {
	// The paper's worked example (Section II-B1d): q = 5, xi = 2.
	f := musttest.Must(New(5))
	xi := f.PrimitiveElement()
	// Any generator is acceptable mathematically, but Z_5 has generators
	// {2, 3}; check ours is one of them and that 2 is a generator.
	if xi != 2 && xi != 3 {
		t.Fatalf("GF(5): primitive element %d not in {2,3}", xi)
	}
	if f.Order(2) != 4 {
		t.Fatalf("GF(5): order(2) = %d, want 4", f.Order(2))
	}
	// 2^1=2, 2^2=4, 2^3=3, 2^4=1 as in the paper.
	want := []int{2, 4, 3, 1}
	for i, w := range want {
		if got := f.Pow(2, i+1); got != w {
			t.Fatalf("GF(5): 2^%d = %d, want %d", i+1, got, w)
		}
	}
}

func TestPowAndOrder(t *testing.T) {
	for _, q := range []int{5, 9, 16, 27, 49} {
		f := musttest.Must(New(q))
		for a := 1; a < q; a++ {
			ord := f.Order(a)
			if f.Pow(a, ord) != 1 {
				t.Fatalf("GF(%d): a=%d a^order != 1", q, a)
			}
			for e := 1; e < ord; e++ {
				if f.Pow(a, e) == 1 {
					t.Fatalf("GF(%d): a=%d has smaller order %d < %d", q, a, e, ord)
				}
			}
			if (q-1)%ord != 0 {
				t.Fatalf("GF(%d): order(%d)=%d does not divide q-1", q, a, ord)
			}
		}
	}
}

func TestDivIsInverseOfMul(t *testing.T) {
	f := musttest.Must(New(49))
	cfg := &quick.Config{MaxCount: 500}
	err := quick.Check(func(ai, bi uint8) bool {
		a := int(ai) % 49
		b := int(bi)%48 + 1 // nonzero
		return f.Div(f.Mul(a, b), b) == a
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestFrobeniusOnExtensionFields(t *testing.T) {
	// In GF(p^n), (a+b)^p = a^p + b^p (freshman's dream). This is a strong
	// structural check that the extension-field tables are consistent.
	for _, q := range []int{4, 8, 9, 16, 25, 27, 32, 49} {
		f := musttest.Must(New(q))
		for a := 0; a < q; a++ {
			for b := 0; b < q; b++ {
				lhs := f.Pow(f.Add(a, b), f.P)
				rhs := f.Add(f.Pow(a, f.P), f.Pow(b, f.P))
				if lhs != rhs {
					t.Fatalf("GF(%d): Frobenius fails at a=%d b=%d", q, a, b)
				}
			}
		}
	}
}

func TestCharacteristic(t *testing.T) {
	// p * a = 0 for every a (adding a to itself p times).
	for _, q := range []int{9, 25, 27, 32} {
		f := musttest.Must(New(q))
		for a := 0; a < q; a++ {
			s := 0
			for i := 0; i < f.P; i++ {
				s = f.Add(s, a)
			}
			if s != 0 {
				t.Fatalf("GF(%d): char*a != 0 for a=%d", q, a)
			}
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	musttest.Must(New(7)).Inv(0)
}

func BenchmarkFieldConstruction49(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := New(49); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMul(b *testing.B) {
	f := musttest.Must(New(43))
	b.ResetTimer()
	s := 0
	for i := 0; i < b.N; i++ {
		s += f.Mul(i%43, (i+7)%43)
	}
	_ = s
}

// Inv returns the multiplicative inverse of a. It panics on a == 0.
func (f *Field) Inv(a int) int {
	if a == 0 {
		panic("gf: inverse of zero")
	}
	return f.exp[f.Q-1-f.log[a]]
}

// Order returns the multiplicative order of a (smallest e > 0 with a^e = 1).
// It panics on a == 0.
func (f *Field) Order(a int) int {
	if a == 0 {
		panic("gf: order of zero")
	}
	l := f.log[a]
	if l == 0 {
		return 1
	}
	g := gcd(l, f.Q-1)
	return (f.Q - 1) / g
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
