// Package stats provides deterministic random number generation and small
// statistical helpers (means, confidence intervals, sampling) used across the
// Slim Fly experiments. Every simulation and sampled analysis in this
// repository seeds an explicit RNG so results are bit-reproducible.
package stats

// RNG is a small, fast, deterministic pseudo-random number generator based on
// splitmix64 seeding and xoshiro256** state transitions. It is not safe for
// concurrent use; create one per goroutine.
type RNG struct {
	s [4]uint64
}

// NewRNG returns an RNG seeded from the given seed via splitmix64, which
// guarantees a well-mixed nonzero state for any seed value.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// jumpPoly is the xoshiro256 jump polynomial: applying it advances the
// state by 2^128 steps of Uint64.
var jumpPoly = [4]uint64{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}

// Jump advances the generator by 2^128 steps, equivalent to 2^128 calls to
// Uint64. Repeated jumps from one seeded state carve the sequence into
// non-overlapping streams (no realistic consumer draws 2^128 values), which
// is how the simulator derives per-router random streams from a single
// seed: stream k is the seed state jumped k times, independent of how the
// routers are later partitioned across workers.
func (r *RNG) Jump() {
	var s0, s1, s2, s3 uint64
	for _, j := range jumpPoly {
		for b := uint(0); b < 64; b++ {
			if j&(1<<b) != 0 {
				s0 ^= r.s[0]
				s1 ^= r.s[1]
				s2 ^= r.s[2]
				s3 ^= r.s[3]
			}
			r.Uint64()
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// Uint64 returns the next 64 random bits.
//
//sf:hotpath
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
//
//sf:hotpath
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, bound)
	if lo < bound {
		thresh := (-bound) % bound
		for lo < thresh {
			x = r.Uint64()
			hi, lo = mul64(x, bound)
		}
	}
	return int(hi)
}

func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aLo * bLo
	lo = t & mask32
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask32
	hiPart := t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask32) << 32
	hi = aHi*bHi + hiPart + (t >> 32)
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
//
//sf:hotpath
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
//
//sf:hotpath
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Perm returns a random permutation of [0, n) using Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle shuffles the ints in place.
func (r *RNG) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}
