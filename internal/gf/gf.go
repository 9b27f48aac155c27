// Package gf implements arithmetic in finite (Galois) fields GF(q) for prime
// and prime-power orders q = p^n. The Slim Fly MMS construction (Section
// II-B1 of the paper) requires a prime power q = 4w + delta with
// delta in {-1, 0, +1}, a primitive element xi of GF(q), and the generator
// sets built from its powers; this package supplies all of that.
//
// Elements of GF(p^n) are represented as integers in [0, q): the base-p
// digits of an element are the coefficients of its polynomial representation
// over GF(p), least-significant digit first. For n = 1 this degenerates to
// ordinary arithmetic modulo p. Multiplication uses precomputed log/exp
// tables over a primitive element, so Mul/Inv/Div are O(1) after
// construction.
package gf

import (
	"errors"
	"fmt"
)

// Field is a finite field GF(q) with q = P^N elements.
type Field struct {
	Q int // field order
	P int // characteristic (prime)
	N int // extension degree

	// irreducible is the monic irreducible polynomial of degree N over
	// GF(P) used for reduction, stored as coefficients c[0..N] (c[N] = 1).
	irreducible []int

	// exp[i] = xi^i for i in [0, 2(q-1)): the q-1 powers stored twice over,
	// so a sum of two logs (or log a plus q-1 minus log b) indexes it
	// without a reduction mod q-1. log[exp[i]] = i for i < q-1; log[0] is
	// unused.
	exp []int
	log []int

	addTable []int // q*q add table for fast Add on extension fields
	negTable []int // additive inverses
}

// ErrNotPrimePower reports that the requested order is not a prime power.
var ErrNotPrimePower = errors.New("gf: order is not a prime power")

// PrimePower decomposes q into (p, n) with q = p^n and p prime. ok is false
// if q is not a prime power (or q < 2).
func PrimePower(q int) (p, n int, ok bool) {
	if q < 2 {
		return 0, 0, false
	}
	for d := 2; d*d <= q; d++ {
		if q%d != 0 {
			continue
		}
		// d is the smallest prime factor; q must be a power of it.
		p, n = d, 0
		for v := q; v > 1; v /= p {
			if v%p != 0 {
				return 0, 0, false
			}
			n++
		}
		return p, n, true
	}
	return q, 1, true // q itself is prime
}

// New constructs GF(q). It returns ErrNotPrimePower if q is not a prime
// power.
func New(q int) (*Field, error) {
	p, n, ok := PrimePower(q)
	if !ok {
		return nil, fmt.Errorf("gf: New(%d): %w", q, ErrNotPrimePower)
	}
	f := &Field{Q: q, P: p, N: n}
	if n > 1 {
		irr, err := findIrreducible(p, n)
		if err != nil {
			return nil, err
		}
		f.irreducible = irr
	}
	f.buildAddTables()
	if err := f.buildLogTables(); err != nil {
		return nil, err
	}
	return f, nil
}

// digits splits element a into its base-p coefficient vector of length N.
func (f *Field) digits(a int) []int {
	d := make([]int, f.N)
	for i := 0; i < f.N; i++ {
		d[i] = a % f.P
		a /= f.P
	}
	return d
}

func (f *Field) fromDigits(d []int) int {
	v := 0
	for i := len(d) - 1; i >= 0; i-- {
		v = v*f.P + d[i]
	}
	return v
}

func (f *Field) buildAddTables() {
	q := f.Q
	f.addTable = make([]int, q*q)
	f.negTable = make([]int, q)
	if f.N == 1 {
		for a := 0; a < q; a++ {
			f.negTable[a] = (q - a) % q
			for b := 0; b < q; b++ {
				f.addTable[a*q+b] = (a + b) % q
			}
		}
		return
	}
	for a := 0; a < q; a++ {
		da := f.digits(a)
		neg := make([]int, f.N)
		for i, c := range da {
			neg[i] = (f.P - c) % f.P
		}
		f.negTable[a] = f.fromDigits(neg)
		for b := 0; b < q; b++ {
			db := f.digits(b)
			sum := make([]int, f.N)
			for i := range sum {
				sum[i] = (da[i] + db[i]) % f.P
			}
			f.addTable[a*q+b] = f.fromDigits(sum)
		}
	}
}

// polyMulMod multiplies two elements (polynomial representation) and reduces
// modulo the irreducible polynomial. Used only while bootstrapping the log
// tables.
func (f *Field) polyMulMod(a, b int) int {
	if f.N == 1 {
		return a * b % f.P
	}
	da, db := f.digits(a), f.digits(b)
	prod := make([]int, 2*f.N-1)
	for i, ca := range da {
		if ca == 0 {
			continue
		}
		for j, cb := range db {
			prod[i+j] = (prod[i+j] + ca*cb) % f.P
		}
	}
	// Reduce: for degree d >= N, subtract coeff * x^(d-N) * irreducible.
	for d := len(prod) - 1; d >= f.N; d-- {
		c := prod[d]
		if c == 0 {
			continue
		}
		prod[d] = 0
		for i := 0; i <= f.N; i++ {
			idx := d - f.N + i
			prod[idx] = (prod[idx] - c*f.irreducible[i]%f.P + c*f.P*f.P) % f.P
		}
	}
	return f.fromDigits(prod[:f.N])
}

// buildLogTables finds a generator of the multiplicative group and fills the
// exp/log tables.
func (f *Field) buildLogTables() error {
	q := f.Q
	order := q - 1
	f.exp = make([]int, 2*order)
	f.log = make([]int, q)
	for g := 2; g < q; g++ {
		if !f.isGenerator(g, order) {
			continue
		}
		v := 1
		for i := 0; i < order; i++ {
			f.exp[i], f.exp[order+i] = v, v
			f.log[v] = i
			v = f.polyMulMod(v, g)
		}
		return nil
	}
	if q == 2 {
		f.exp[0], f.exp[1] = 1, 1
		f.log[1] = 0
		return nil
	}
	return fmt.Errorf("gf: no generator found for GF(%d)", q)
}

func (f *Field) isGenerator(g, order int) bool {
	// g generates the multiplicative group iff its order is exactly q-1,
	// i.e. g^((q-1)/r) != 1 for every prime factor r of q-1.
	for _, r := range primeFactors(order) {
		if f.polyPow(g, order/r) == 1 {
			return false
		}
	}
	return true
}

func (f *Field) polyPow(a, e int) int {
	r := 1
	base := a
	for e > 0 {
		if e&1 == 1 {
			r = f.polyMulMod(r, base)
		}
		base = f.polyMulMod(base, base)
		e >>= 1
	}
	return r
}

func primeFactors(v int) []int {
	var fs []int
	for d := 2; d*d <= v; d++ {
		if v%d == 0 {
			fs = append(fs, d)
			for v%d == 0 {
				v /= d
			}
		}
	}
	if v > 1 {
		fs = append(fs, v)
	}
	return fs
}

// findIrreducible searches for a monic irreducible polynomial of degree n
// over GF(p) by exhaustive enumeration with trial division.
func findIrreducible(p, n int) ([]int, error) {
	// A monic polynomial of degree n is encoded by its n low-order
	// coefficients as an integer in [0, p^n).
	pn := 1
	for i := 0; i < n; i++ {
		pn *= p
	}
	for code := 0; code < pn; code++ {
		poly := make([]int, n+1)
		c := code
		for i := 0; i < n; i++ {
			poly[i] = c % p
			c /= p
		}
		poly[n] = 1
		if isIrreducible(poly, p) {
			return poly, nil
		}
	}
	return nil, fmt.Errorf("gf: no irreducible polynomial of degree %d over GF(%d)", n, p)
}

// isIrreducible reports whether the monic polynomial poly (degree n) is
// irreducible over GF(p), by trial division by all monic polynomials of
// degree 1..n/2.
func isIrreducible(poly []int, p int) bool {
	n := len(poly) - 1
	for d := 1; d <= n/2; d++ {
		pd := 1
		for i := 0; i < d; i++ {
			pd *= p
		}
		for code := 0; code < pd; code++ {
			div := make([]int, d+1)
			c := code
			for i := 0; i < d; i++ {
				div[i] = c % p
				c /= p
			}
			div[d] = 1
			if polyDivides(div, poly, p) {
				return false
			}
		}
	}
	return true
}

// polyDivides reports whether monic polynomial div divides poly over GF(p).
func polyDivides(div, poly []int, p int) bool {
	rem := append([]int(nil), poly...)
	dd := len(div) - 1
	for len(rem)-1 >= dd {
		lead := rem[len(rem)-1]
		if lead != 0 {
			shift := len(rem) - 1 - dd
			for i := 0; i <= dd; i++ {
				rem[shift+i] = ((rem[shift+i]-lead*div[i])%p + p*p) % p
			}
		}
		rem = rem[:len(rem)-1]
		for len(rem) > 0 && rem[len(rem)-1] == 0 {
			rem = rem[:len(rem)-1]
		}
		if len(rem) == 0 {
			return true
		}
	}
	return false
}

// Add returns a + b in the field.
//
//sf:hotpath
func (f *Field) Add(a, b int) int { return f.addTable[a*f.Q+b] }

// Neg returns the additive inverse of a.
func (f *Field) Neg(a int) int { return f.negTable[a] }

// Sub returns a - b in the field.
//
//sf:hotpath
func (f *Field) Sub(a, b int) int { return f.addTable[a*f.Q+f.negTable[b]] }

// Mul returns a * b in the field.
//
//sf:hotpath
func (f *Field) Mul(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[f.log[a]+f.log[b]]
}

// Inv returns the multiplicative inverse of a. It panics on a == 0.
func (f *Field) Inv(a int) int {
	if a == 0 {
		panic("gf: inverse of zero")
	}
	return f.exp[f.Q-1-f.log[a]]
}

// Div returns a / b. It panics on b == 0.
//
//sf:hotpath
func (f *Field) Div(a, b int) int {
	if b == 0 {
		panic("gf: inverse of zero")
	}
	if a == 0 {
		return 0
	}
	return f.exp[f.log[a]+f.Q-1-f.log[b]]
}

// Pow returns a^e (e >= 0, with a^0 = 1; 0^e = 0 for e > 0).
func (f *Field) Pow(a, e int) int {
	if e == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return f.exp[(f.log[a]*e)%(f.Q-1)]
}

// PrimitiveElement returns a generator xi of the multiplicative group of the
// field: every nonzero element is a power of xi.
func (f *Field) PrimitiveElement() int {
	if f.Q == 2 {
		return 1
	}
	return f.exp[1]
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
