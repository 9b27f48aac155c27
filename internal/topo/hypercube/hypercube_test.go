package hypercube

import (
	"testing"

	"slimfly/internal/musttest"
	"slimfly/internal/topo"
)

func TestInvalid(t *testing.T) {
	for _, n := range []int{0, -1, 31} {
		if _, err := New(n); err == nil {
			t.Errorf("New(%d) succeeded", n)
		}
	}
}

func TestStructure(t *testing.T) {
	for n := 1; n <= 8; n++ {
		hc := musttest.Must(New(n))
		g := hc.Graph()
		if g.N() != 1<<n {
			t.Fatalf("n=%d: N=%d", n, g.N())
		}
		if d := n; g.MaxDegree() != d || 2*g.EdgeCount() != g.N()*d {
			t.Fatalf("n=%d: not %d-regular: max degree %d, %d edges", n, d, g.MaxDegree(), g.EdgeCount())
		}
		if g.EdgeCount() != n*(1<<n)/2 {
			t.Fatalf("n=%d: edges=%d", n, g.EdgeCount())
		}
	}
}

func TestDiameter(t *testing.T) {
	for _, n := range []int{3, 5, 7} {
		hc := musttest.Must(New(n))
		st := hc.Graph().AllPairsStats()
		if !st.Connected || st.Diameter != n {
			t.Errorf("n=%d: stats=%+v", n, st)
		}
		// Average distance of the n-cube is n/2 * 2^n/(2^n - 1).
		want := float64(n) / 2 * float64(int64(1)<<n) / float64((int64(1)<<n)-1)
		if diff := st.AvgDist - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("n=%d: avg=%v, want %v", n, st.AvgDist, want)
		}
	}
}

func TestInterface(t *testing.T) {
	var _ topo.Topology = musttest.Must(New(3))
}
