package slimfly

import (
	"math"
	"testing"
)

func TestAnalyticChannelLoadMatchesMeasured(t *testing.T) {
	// The paper's channel-load derivation (Section II-B2) assumes routes
	// spread evenly; the measured mean over deterministic minimal routes
	// must match the analytic mean exactly (every route has a fixed
	// length, so the mean is construction-independent).
	for _, q := range []int{5, 7, 9} {
		sf := MustNew(q)
		analytic := sf.AnalyticChannelLoad()
		mean, max := sf.MeasuredChannelLoad()
		if d := math.Abs(mean-analytic) / analytic; d > 0.01 {
			t.Errorf("q=%d: measured mean load %.2f vs analytic %.2f", q, mean, analytic)
		}
		if max < mean {
			t.Errorf("q=%d: max %v < mean %v", q, max, mean)
		}
	}
}

func TestBalancedConfigurationsAreBalanced(t *testing.T) {
	// p = ceil(k'/2) must satisfy the full-injection condition.
	for _, q := range []int{5, 7, 9, 11, 13, 17, 19} {
		sf := MustNew(q)
		if !sf.IsBalanced() {
			t.Errorf("q=%d: balanced concentration p=%d fails the balance condition", q, sf.Concentration())
		}
	}
}

func TestOversubscriptionBreaksBalance(t *testing.T) {
	// Doubling p must violate the balance condition (Section V-E's
	// oversubscribed networks cannot sustain full injection).
	kp, _, _, _ := Params(9)
	sf, err := NewWithConcentration(9, 2*BalancedConcentration(kp))
	if err != nil {
		t.Fatal(err)
	}
	if sf.IsBalanced() {
		t.Error("doubled concentration still reported balanced")
	}
}

func TestPathDiversity(t *testing.T) {
	// Hoffman-Singleton is a Moore graph: exactly ONE minimal path
	// between any two non-adjacent routers.
	sf := MustNew(5)
	if d := sf.PathDiversity(); d != 1 {
		t.Errorf("HS path diversity = %v, want exactly 1", d)
	}
	// Larger (non-Moore) MMS graphs have minimal-path diversity strictly
	// above 1: some distance-2 pairs enjoy several common neighbours
	// (most of SF's resiliency comes from the abundant non-minimal paths
	// on top of this, Section III-D1).
	sf13 := MustNew(13)
	if d := sf13.PathDiversity(); d <= 1.0 {
		t.Errorf("q=13 path diversity = %v, want > 1", d)
	}
}

// AnalyticChannelLoad returns the average channel load l of Section II-B2:
// the mean number of minimal routes crossing each directed channel when
// every endpoint sends to every other endpoint,
//
//	l = (k' + 2*(Nr - k' - 1)) * p^2 / (k' * Nr)  per the paper's derivation
//	  = (2*Nr - k' - 2) * p^2 / k'
//
// normalised here per channel (the paper's formula counts total route-hops
// over the k'*Nr channels).
func (sf *SlimFly) AnalyticChannelLoad() float64 {
	nr := float64(sf.Routers())
	kp := float64(sf.NetworkRadix())
	p := float64(sf.Concentration())
	return (2*nr - kp - 2) * p * p / kp
}

// IdealConcentration returns the exact balance point of Section II-B2,
// p = k'*Nr / (2*Nr - k' - 2), at which injection bandwidth equals channel
// capacity under all-to-all traffic. The paper rounds this to ceil(k'/2).
func (sf *SlimFly) IdealConcentration() float64 {
	nr := float64(sf.Routers())
	kp := float64(sf.NetworkRadix())
	return kp * nr / (2*nr - kp - 2)
}

// IsBalanced reports whether the configured concentration is at most the
// rounded-up ideal (the paper's balanced configurations land within one of
// the exact balance point; anything above is oversubscribed, Section V-E).
func (sf *SlimFly) IsBalanced() bool {
	return sf.Concentration() <= int(sf.IdealConcentration())+1
}

// MeasuredChannelLoad computes the actual mean and maximum number of
// minimal routes per directed channel, using a deterministic
// lowest-id-next-hop route for every ordered router pair weighted by p^2
// endpoint pairs. It validates the analytic load formula on the real
// graph.
func (sf *SlimFly) MeasuredChannelLoad() (mean, max float64) {
	g := sf.Graph()
	n := g.N()
	p := sf.Concentration()
	counts := make(map[int64]int64)
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	for d := 0; d < n; d++ {
		g.BFSInto(d, dist, queue)
		for u := 0; u < n; u++ {
			if u == d {
				continue
			}
			// Walk the deterministic minimal route u -> d.
			cur := u
			for cur != d {
				next := -1
				for _, v := range g.Neighbors(cur) {
					if dist[v] == dist[cur]-1 {
						next = int(v)
						break
					}
				}
				counts[int64(cur)<<32|int64(next)] += int64(p * p)
				cur = next
			}
		}
	}
	channels := float64(n * sf.NetworkRadix())
	var sum, mx int64
	for _, c := range counts {
		sum += c
		if c > mx {
			mx = c
		}
	}
	return float64(sum) / channels, float64(mx)
}

// PathDiversity returns the average number of distinct minimal paths
// between distinct router pairs at distance two (adjacent pairs have
// exactly one). High diversity underlies SF's resiliency (Section III-D).
func (sf *SlimFly) PathDiversity() float64 {
	g := sf.Graph()
	n := g.N()
	var sum int64
	var pairs int64
	// Vertex-transitive: sampling sources is sound, but the graphs are
	// small enough to do exactly from a few sources.
	srcs := n
	if srcs > 64 {
		srcs = 64
	}
	for s := 0; s < srcs; s++ {
		dist, preds := g.ShortestPathDAGFrom(s)
		for t := 0; t < n; t++ {
			if dist[t] != 2 {
				continue
			}
			sum += int64(len(preds[t]))
			pairs++
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(sum) / float64(pairs)
}
