package partition

import (
	"testing"

	"slimfly/internal/graph"
	"slimfly/internal/graphtest"
	"slimfly/internal/topo/hypercube"
	"slimfly/internal/topo/torus"
)

func balanced(part []bool) bool {
	a := 0
	for _, p := range part {
		if !p {
			a++
		}
	}
	diff := len(part) - 2*a
	return diff >= -1 && diff <= 1
}

func TestBisectTwoCliques(t *testing.T) {
	// Two K8 cliques joined by a single bridge edge: optimal cut = 1.
	es := []graph.Edge{{U: 0, V: 8}}
	for i := int32(0); i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			es = append(es, graph.Edge{U: i, V: j}, graph.Edge{U: 8 + i, V: 8 + j})
		}
	}
	g := graph.MustFromEdges(16, es)
	res := Bisect(g, 8, 1)
	if res.Cut != 1 {
		t.Errorf("cut = %d, want 1", res.Cut)
	}
	if !balanced(res.Part) {
		t.Error("partition unbalanced")
	}
	if CutSize(g, res.Part) != res.Cut {
		t.Error("reported cut disagrees with CutSize")
	}
}

func TestBisectHypercube(t *testing.T) {
	// The minimum bisection of the n-cube is exactly 2^(n-1) = N/2.
	hc := hypercube.MustNew(6)
	res := Bisect(hc.Graph(), 12, 2)
	want := 32
	if res.Cut < want {
		t.Fatalf("cut %d below the true optimum %d", res.Cut, want)
	}
	if res.Cut > want {
		t.Errorf("cut = %d, optimum %d not found (heuristic quality)", res.Cut, want)
	}
	if !balanced(res.Part) {
		t.Error("unbalanced")
	}
}

func TestBisectTorus(t *testing.T) {
	// 8x8 torus: optimal bisection cuts 2 rows of wraparound rings = 16.
	tor := torus.MustNew([]int{8, 8}, 1)
	res := Bisect(tor.Graph(), 16, 3)
	if res.Cut < 16 {
		t.Fatalf("cut %d below optimum 16", res.Cut)
	}
	if res.Cut > 20 {
		t.Errorf("cut = %d, want near-optimal (16)", res.Cut)
	}
}

func TestBisectRing(t *testing.T) {
	g := graphtest.Ring(10)
	res := Bisect(g, 8, 4)
	if res.Cut != 2 {
		t.Errorf("ring cut = %d, want 2", res.Cut)
	}
}

func TestBisectTiny(t *testing.T) {
	res := Bisect(graph.MustFromEdges(1, nil), 2, 0)
	if res.Cut != 0 {
		t.Errorf("single vertex cut = %d", res.Cut)
	}
	g := graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1}})
	res = Bisect(g, 2, 0)
	if res.Cut != 1 || !balanced(res.Part) {
		t.Errorf("K2: %+v", res)
	}
}

func TestBisectOddVertexCount(t *testing.T) {
	g := graphtest.Ring(9)
	res := Bisect(g, 4, 5)
	if !balanced(res.Part) {
		t.Error("odd-size partition unbalanced")
	}
	if res.Cut != 2 {
		t.Errorf("9-ring cut = %d, want 2", res.Cut)
	}
}

func TestDeterminism(t *testing.T) {
	hc := hypercube.MustNew(5)
	a := Bisect(hc.Graph(), 6, 9)
	b := Bisect(hc.Graph(), 6, 9)
	if a.Cut != b.Cut {
		t.Errorf("non-deterministic: %d vs %d", a.Cut, b.Cut)
	}
	for i := range a.Part {
		if a.Part[i] != b.Part[i] {
			t.Fatal("partitions differ for identical seeds")
		}
	}
}

func BenchmarkBisectHypercube8(b *testing.B) {
	hc := hypercube.MustNew(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Bisect(hc.Graph(), 4, uint64(i))
	}
}
