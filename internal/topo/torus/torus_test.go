package torus

import (
	"testing"

	"slimfly/internal/musttest"
	"slimfly/internal/topo"
)

func TestInvalid(t *testing.T) {
	if _, err := New(nil, 1); err == nil {
		t.Error("empty dims accepted")
	}
	if _, err := New([]int{4, 1}, 1); err == nil {
		t.Error("dim size 1 accepted")
	}
	if _, err := New([]int{4}, 0); err == nil {
		t.Error("p=0 accepted")
	}
}

func TestRingDegenerate(t *testing.T) {
	// Size-2 dimensions give a single edge, not a double edge.
	tor := musttest.Must(New([]int{2, 2}, 1))
	g := tor.Graph()
	if g.N() != 4 || g.EdgeCount() != 4 {
		t.Errorf("2x2 torus: N=%d E=%d, want 4,4", g.N(), g.EdgeCount())
	}
	if d := 2; g.MaxDegree() != d || 2*g.EdgeCount() != g.N()*d {
		t.Errorf("2x2 torus not %d-regular: max degree %d, %d edges", d, g.MaxDegree(), g.EdgeCount())
	}
}

func Test3DStructure(t *testing.T) {
	tor := musttest.Must(New([]int{4, 4, 4}, 1))
	g := tor.Graph()
	if g.N() != 64 {
		t.Fatalf("N=%d", g.N())
	}
	if d := 6; g.MaxDegree() != d || 2*g.EdgeCount() != g.N()*d {
		t.Fatalf("not %d-regular: max degree %d, %d edges", d, g.MaxDegree(), g.EdgeCount())
	}
	st := g.AllPairsStats()
	if !st.Connected || st.Diameter != 6 { // 3 * floor(4/2)
		t.Fatalf("stats=%+v", st)
	}
	if tor.DesignDiameter() != 6 {
		t.Fatalf("design diameter=%d", tor.DesignDiameter())
	}
}

func Test5D(t *testing.T) {
	tor := musttest.Must(New([]int{3, 3, 3, 3, 3}, 1))
	g := tor.Graph()
	if g.N() != 243 {
		t.Fatalf("N=%d", g.N())
	}
	if d := 10; g.MaxDegree() != d || 2*g.EdgeCount() != g.N()*d {
		t.Fatalf("not %d-regular: max degree %d, %d edges", d, g.MaxDegree(), g.EdgeCount())
	}
	st := g.AllPairsStats()
	if st.Diameter != 5 {
		t.Fatalf("diameter=%d, want 5", st.Diameter)
	}
}

func TestMixedDims(t *testing.T) {
	tor := musttest.Must(New([]int{5, 3, 2}, 2))
	g := tor.Graph()
	if g.N() != 30 {
		t.Fatalf("N=%d", g.N())
	}
	if tor.Endpoints() != 60 {
		t.Fatalf("endpoints=%d", tor.Endpoints())
	}
	// k' = 2+2+1 = 5.
	if tor.NetworkRadix() != 5 {
		t.Fatalf("k'=%d", tor.NetworkRadix())
	}
	st := g.AllPairsStats()
	if !st.Connected || st.Diameter != 2+1+1 {
		t.Fatalf("stats=%+v", st)
	}
}

func TestForEndpoints(t *testing.T) {
	dims := ForEndpoints(3, 1000)
	size := 1
	for _, d := range dims {
		size *= d
	}
	if size < 1000 {
		t.Errorf("dims %v give %d < 1000 routers", dims, size)
	}
	// Sides differ by at most one.
	min, max := dims[0], dims[0]
	for _, d := range dims {
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if max-min > 1 {
		t.Errorf("dims %v not near-cubic", dims)
	}
}

func TestInterface(t *testing.T) {
	var _ topo.Topology = musttest.Must(New([]int{3, 3}, 1))
}
