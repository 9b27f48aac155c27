// Package roster builds balanced ("full global bandwidth") configurations
// of every topology in the study near a requested endpoint count, using the
// per-topology concentration rules of Section III: p = ceil(k'/2) for SF,
// p = (k+1)/4 for DF, p = c for FBF-3, p = k/2 for FT-3, p = floor(sqrt(k))
// for DLN, and p = 1 for the low-radix topologies (tori, HC, LH-HC).
package roster

import (
	"fmt"

	"slimfly/internal/topo"
	"slimfly/internal/topo/dragonfly"
	"slimfly/internal/topo/fattree"
	"slimfly/internal/topo/fbutterfly"
	"slimfly/internal/topo/hypercube"
	"slimfly/internal/topo/longhop"
	"slimfly/internal/topo/random"
	"slimfly/internal/topo/slimfly"
	"slimfly/internal/topo/torus"
)

// Kind names one of the nine compared topologies.
type Kind string

// The topology roster of Table II.
const (
	SF   Kind = "SF"
	DF   Kind = "DF"
	FT3  Kind = "FT-3"
	FBF3 Kind = "FBF-3"
	T3D  Kind = "T3D"
	T5D  Kind = "T5D"
	HC   Kind = "HC"
	LHHC Kind = "LH-HC"
	DLN  Kind = "DLN"
)

// Kinds returns all topologies in presentation order.
func Kinds() []Kind {
	return []Kind{SF, DF, FT3, FBF3, T3D, T5D, HC, LHHC, DLN}
}

// rung is one balanced configuration of a discrete kind: its endpoint
// count and the constructor parameter that builds it.
type rung struct{ n, param int }

// ladder returns the balanced configurations of a discrete kind in
// ascending endpoint order, and nil for the continuously scalable kinds
// and unknown ones.
func ladder(kind Kind) []rung {
	var out []rung
	switch kind {
	case SF:
		for _, q := range slimfly.ValidOrders(3, 128) {
			kp, nr, _, _ := slimfly.Params(q)
			out = append(out, rung{slimfly.BalancedConcentration(kp) * nr, q})
		}
	case DF:
		for p := 1; p <= 64; p++ {
			_, _, _, _, n, _ := dragonfly.Params(p)
			out = append(out, rung{n, p})
		}
	case FT3:
		for p := 2; p <= 128; p++ {
			out = append(out, rung{p * p * p, p})
		}
	case FBF3:
		for c := 2; c <= 64; c++ {
			out = append(out, rung{c * c * c * c, c})
		}
	case HC, LHHC:
		for d := 3; d <= 26; d++ {
			out = append(out, rung{1 << d, d})
		}
	}
	return out
}

// Near builds the balanced configuration of the given kind whose endpoint
// count is closest to n, the smaller one on a tie. Random topologies take
// the seed; others ignore it.
func Near(kind Kind, n int, seed uint64) (topo.Topology, error) {
	switch kind {
	case T3D:
		return torus.New(torus.ForEndpoints(3, n), 1)
	case T5D:
		return torus.New(torus.ForEndpoints(5, n), 1)
	case DLN:
		// Balanced DLN at the router radix of the comparable Slim Fly
		// (Table IV compares fixed-radix k=43 networks), with at least 8
		// routers.
		sf, err := Near(SF, n, seed)
		if err != nil {
			return nil, err
		}
		k := sf.Radix()
		p := random.BalancedConcentration(k)
		return random.Balanced(max((n+p-1)/p, 8), k, seed)
	}
	rungs := ladder(kind)
	if rungs == nil {
		return nil, fmt.Errorf("roster: unknown kind %q", kind)
	}
	// The ladder ascends, so a later rung wins only when strictly closer.
	best := rungs[0]
	for _, r := range rungs[1:] {
		if r.n-n < n-best.n {
			best = r
		}
	}
	switch kind {
	case SF:
		return slimfly.New(best.param)
	case DF:
		return dragonfly.New(best.param)
	case FT3:
		return fattree.New(best.param)
	case FBF3:
		return fbutterfly.New(best.param)
	case HC:
		return hypercube.New(best.param)
	default: // LHHC
		return longhop.New(best.param, longhop.DefaultExtra(best.param))
	}
}

// BalancedSizes returns the endpoint counts of the kind's balanced ladder
// within [lo, hi] -- the x-axis of Figures 1, 5c, 11c and 11d.
func BalancedSizes(kind Kind, lo, hi int) []int {
	var out []int
	switch kind {
	case T3D, T5D, DLN:
		// Continuously scalable: sample a geometric ladder.
		for n := lo; n <= hi; n = n*3/2 + 1 {
			out = append(out, n)
		}
	}
	for _, r := range ladder(kind) {
		if r.n >= lo && r.n <= hi {
			out = append(out, r.n)
		}
	}
	return out
}
