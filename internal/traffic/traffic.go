// Package traffic implements the traffic patterns of the performance study
// (Section V): uniform random for irregular workloads, the bit permutation
// and shift patterns standing in for collectives, and the adversarial
// worst-case patterns for Slim Fly, Dragonfly and fat tree.
package traffic

import (
	"slimfly/internal/route"
	"slimfly/internal/stats"
	"slimfly/internal/topo"
)

// Pattern decides the destination endpoint for every injected packet.
type Pattern interface {
	Name() string
	// Dest returns the destination endpoint for a packet injected at
	// endpoint src, or -1 if src is inactive under this pattern (e.g. the
	// bit permutations only activate a power-of-two subset, Section V-B).
	Dest(src int, rng *stats.RNG) int
}

// Uniform is uniform random traffic over n endpoints (Section V-A).
type Uniform struct{ N int }

// Name implements Pattern.
func (Uniform) Name() string { return "uniform" }

// Dest implements Pattern.
func (u Uniform) Dest(src int, rng *stats.RNG) int {
	d := rng.Intn(u.N - 1)
	if d >= src {
		d++
	}
	return d
}

// Permutation is a fixed endpoint permutation; Dests[s] == -1 deactivates s.
type Permutation struct {
	PatternName string
	Dests       []int32
}

// Name implements Pattern.
func (p *Permutation) Name() string { return p.PatternName }

// Dest implements Pattern.
func (p *Permutation) Dest(src int, _ *stats.RNG) int { return int(p.Dests[src]) }

// activeBits returns the number of address bits b with 2^b <= n, as the bit
// permutations require a power-of-two number of active endpoints: the paper
// "artificially prevents some endpoints from sending and receiving".
func activeBits(n int) int {
	b := 0
	for (1 << (b + 1)) <= n {
		b++
	}
	return b
}

func permutationOver(n int, name string, f func(s, b int) int) *Permutation {
	b := activeBits(n)
	active := 1 << b
	dests := make([]int32, n)
	for s := 0; s < n; s++ {
		if s < active {
			dests[s] = int32(f(s, b))
		} else {
			dests[s] = -1
		}
	}
	return &Permutation{PatternName: name, Dests: dests}
}

// Shuffle builds the shuffle pattern d_i = s_(i-1 mod b): a one-bit left
// rotation of the source address.
func Shuffle(n int) *Permutation {
	return permutationOver(n, "shuffle", func(s, b int) int {
		return ((s << 1) | (s >> (b - 1))) & ((1 << b) - 1)
	})
}

// BitReversal builds d_i = s_(b-i-1).
func BitReversal(n int) *Permutation {
	return permutationOver(n, "bitrev", func(s, b int) int {
		r := 0
		for i := 0; i < b; i++ {
			if s&(1<<i) != 0 {
				r |= 1 << (b - 1 - i)
			}
		}
		return r
	})
}

// BitComplement builds d_i = NOT s_i.
func BitComplement(n int) *Permutation {
	return permutationOver(n, "bitcomp", func(s, b int) int {
		return (^s) & ((1 << b) - 1)
	})
}

// Shift is the paper's shift pattern: for source s the destination is
// (s mod N/2) or (s mod N/2) + N/2 with probability 1/2 each (Section V-B).
type Shift struct{ N int }

// Name implements Pattern.
func (Shift) Name() string { return "shift" }

// Dest implements Pattern.
func (sh Shift) Dest(src int, rng *stats.RNG) int {
	half := sh.N / 2
	d := src % half
	if rng.Bernoulli(0.5) {
		d += half
	}
	if d == src { // avoid self-traffic on the rare identity draws
		d = (d + half) % (2 * half)
	}
	return d
}

// WorstCaseSF builds the adversarial permutation of Section V-C for a Slim
// Fly (or any diameter-2 network routed by rt): for links (Rx, Ry) it pairs
// endpoints of routers whose minimal route to Rx passes through Ry with
// endpoints at Rx (and symmetrically via Rx toward Ry), maximising the load
// on the link. Remaining endpoints are paired randomly so the permutation
// is total.
//
// The build is link-local: a router whose next hop toward x is y is by
// definition adjacent to y, so only y's neighbours are asked. It requires
// sorted adjacency (graph.SortAdjacency) -- the pattern is defined by
// visiting those routers in ascending id order.
func WorstCaseSF(t topo.Topology, rt route.Router, seed uint64) *Permutation {
	n := t.Endpoints()
	dests := make([]int32, n)
	for i := range dests {
		dests[i] = -1
	}
	g := t.Graph()
	srcUsed := make([]bool, n)
	dstUsed := make([]bool, n)
	// srcLeft[r]/dstLeft[r] count router r's endpoints still unused as a
	// source/destination: a router with none left cannot take part in a
	// pairing, so it is skipped before any routing query or pair attempt.
	srcLeft := make([]int, g.N())
	dstLeft := make([]int, g.N())
	for r := range srcLeft {
		srcLeft[r] = len(t.RouterEndpoints(r))
		dstLeft[r] = srcLeft[r]
	}
	// pair routes endpoint s (on router rs) to endpoint d (on router rd).
	pair := func(s, rs, d, rd int) bool {
		if s == d || srcUsed[s] || dstUsed[d] {
			return false
		}
		dests[s] = int32(d)
		srcUsed[s] = true
		dstUsed[d] = true
		srcLeft[rs]--
		dstLeft[rd]--
		return true
	}
	// For every directed link y->x, gather routers whose minimal route to
	// x enters through y, then pair their endpoints against x's endpoints
	// (both directions, "send and receive").
	for _, e := range g.Edges() {
		for _, dir := range [2][2]int32{{e.U, e.V}, {e.V, e.U}} {
			x, y := int(dir[0]), int(dir[1])
			xEps := t.RouterEndpoints(x)
			for _, nb := range g.Neighbors(y) {
				if dstLeft[x] == 0 {
					break // x can receive nothing more, over this link or any other
				}
				r := int(nb)
				if srcLeft[r] == 0 || rt.Distance(r, x) != 2 || rt.NextHop(r, x) != int32(y) {
					continue
				}
				for _, es := range t.RouterEndpoints(r) {
					for _, ed := range xEps {
						if pair(es, r, ed, x) {
							pair(ed, x, es, r)
							break
						}
					}
				}
			}
		}
	}
	// Pair leftovers randomly (deterministic seed).
	rng := stats.NewRNG(seed)
	var freeSrc, freeDst []int
	for i := 0; i < n; i++ {
		if !srcUsed[i] {
			freeSrc = append(freeSrc, i)
		}
		if !dstUsed[i] {
			freeDst = append(freeDst, i)
		}
	}
	rng.Shuffle(freeDst)
	for i, s := range freeSrc {
		d := freeDst[i]
		if s == d { // swap with a neighbour to avoid self-traffic
			j := (i + 1) % len(freeDst)
			freeDst[i], freeDst[j] = freeDst[j], freeDst[i]
			d = freeDst[i]
			if s == d {
				continue // single leftover endpoint: stays inactive
			}
		}
		dests[s] = int32(d)
	}
	return &Permutation{PatternName: "worstcase-sf", Dests: dests}
}

// WorstCaseDF is the Dragonfly adversarial pattern of Kim et al. (Section
// 4.2 of [41], referenced in Section V-C): every endpoint in group i sends
// to the endpoint with the same in-group offset in group i+1, overloading
// the single global channel between consecutive groups.
func WorstCaseDF(groupOf func(router int) int, t topo.Topology, groups int) *Permutation {
	n := t.Endpoints()
	perGroup := n / groups
	dests := make([]int32, n)
	for s := 0; s < n; s++ {
		r := t.EndpointRouter(s)
		gi := groupOf(r)
		offset := s - gi*perGroup
		dests[s] = int32(((gi+1)%groups)*perGroup + offset)
	}
	return &Permutation{PatternName: "worstcase-df", Dests: dests}
}

// WorstCaseFT forces every packet through the core level of a 3-level fat
// tree: endpoints in pod i send to the endpoint with equal offset in pod
// i+1 (cross-pod traffic always traverses a core switch).
func WorstCaseFT(pods int, t topo.Topology) *Permutation {
	n := t.Endpoints()
	perPod := n / pods
	dests := make([]int32, n)
	for s := 0; s < n; s++ {
		pod := s / perPod
		offset := s % perPod
		dests[s] = int32(((pod+1)%pods)*perPod + offset)
	}
	return &Permutation{PatternName: "worstcase-ft", Dests: dests}
}
