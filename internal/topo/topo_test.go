package topo

import (
	"strings"
	"testing"

	"slimfly/internal/graph"
)

func base() *Base {
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	return &Base{TopoName: "test", G: g, N: 8, P: 2, Kp: 2, Diam: 3}
}

func TestBaseUniformMapping(t *testing.T) {
	b := base()
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.EndpointRouter(0) != 0 || b.EndpointRouter(7) != 3 {
		t.Error("uniform mapping wrong")
	}
	eps := b.RouterEndpoints(1)
	if len(eps) != 2 || eps[0] != 2 || eps[1] != 3 {
		t.Errorf("RouterEndpoints(1) = %v", eps)
	}
	if b.Radix() != 4 {
		t.Errorf("radix = %d", b.Radix())
	}
}

func TestBaseCustomMapping(t *testing.T) {
	b := base()
	b.N = 3
	b.EpRouter = []int32{0, 0, 3}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.EndpointRouter(2) != 3 {
		t.Error("custom mapping ignored")
	}
	if len(b.RouterEndpoints(1)) != 0 {
		t.Error("router 1 should host nothing")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	b := base()
	b.G = nil
	if b.Validate() == nil {
		t.Error("nil graph accepted")
	}

	b = base()
	b.P = 0
	if b.Validate() == nil {
		t.Error("zero concentration with endpoints accepted")
	}

	b = base()
	b.EpRouter = []int32{0} // wrong length
	if b.Validate() == nil {
		t.Error("bad EpRouter length accepted")
	}

	b = base()
	b.N = 3
	b.EpRouter = []int32{0, 0, 9}
	if b.Validate() == nil {
		t.Error("out-of-range router accepted")
	}

	b = base()
	b.N = 4
	b.EpRouter = []int32{0, 0, 0, 1} // router 0 hosts 3 > p = 2
	if b.Validate() == nil {
		t.Error("overloaded router accepted")
	}

	b = base()
	b.Kp = 1 // graph has degree-2 vertices
	if b.Validate() == nil {
		t.Error("degree above declared k' accepted")
	}
}

func TestSummary(t *testing.T) {
	s := Summary(base())
	for _, want := range []string{"test:", "N=8", "Nr=4", "p=2", "k'=2", "k=4", "D=3"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
}
