package gf

import "testing"

// TestDoubledExpMatchesModFormula cross-checks the reduction-free Mul, Inv
// and Div (which index the doubled exp table directly) against the
// formulas they replaced -- exp[(log a +- log b) mod (q-1)] over the first
// q-1 entries -- on every operand pair, so the doubling is provably only a
// change of cost.
func TestDoubledExpMatchesModFormula(t *testing.T) {
	for _, q := range []int{4, 5, 7, 8, 9, 16, 25, 27} {
		f := MustNew(q)
		order := q - 1
		if len(f.exp) != 2*order {
			t.Fatalf("GF(%d): exp has %d entries, want %d", q, len(f.exp), 2*order)
		}
		oldMul := func(a, b int) int {
			if a == 0 || b == 0 {
				return 0
			}
			return f.exp[(f.log[a]+f.log[b])%order]
		}
		oldInv := func(a int) int { return f.exp[(order-f.log[a])%order] }
		for a := 0; a < q; a++ {
			if a != 0 && f.Inv(a) != oldInv(a) {
				t.Fatalf("GF(%d): Inv(%d) = %d, mod formula %d", q, a, f.Inv(a), oldInv(a))
			}
			for b := 0; b < q; b++ {
				if got, want := f.Mul(a, b), oldMul(a, b); got != want {
					t.Fatalf("GF(%d): Mul(%d,%d) = %d, mod formula %d", q, a, b, got, want)
				}
				if b == 0 {
					continue
				}
				if got, want := f.Div(a, b), oldMul(a, oldInv(b)); got != want {
					t.Fatalf("GF(%d): Div(%d,%d) = %d, mod formula %d", q, a, b, got, want)
				}
			}
		}
	}
}

func TestDivByZeroPanics(t *testing.T) {
	f := MustNew(7)
	for _, a := range []int{0, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Div(%d, 0) did not panic", a)
				}
			}()
			f.Div(a, 0)
		}()
	}
}
