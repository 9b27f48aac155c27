package fbutterfly

import (
	"testing"

	"slimfly/internal/musttest"
	"slimfly/internal/topo"
)

func TestParams(t *testing.T) {
	nr, n, k := Params(10)
	if nr != 1000 || n != 10000 || k != 37 {
		t.Errorf("Params(10) = (%d,%d,%d)", nr, n, k)
	}
}

func TestInvalid(t *testing.T) {
	if _, err := New(1); err == nil {
		t.Error("New(1) succeeded")
	}
}

func TestStructureAndDiameter(t *testing.T) {
	for _, c := range []int{2, 3, 5} {
		fb := musttest.Must(New(c))
		g := fb.Graph()
		if g.N() != c*c*c {
			t.Fatalf("c=%d: Nr=%d", c, g.N())
		}
		if d := 3 * (c - 1); g.MaxDegree() != d || 2*g.EdgeCount() != g.N()*d {
			t.Fatalf("c=%d: not %d-regular: max degree %d, %d edges", c, d, g.MaxDegree(), g.EdgeCount())
		}
		st := g.AllPairsStats()
		if !st.Connected {
			t.Fatalf("c=%d disconnected", c)
		}
		wantD := 3
		if c == 2 {
			wantD = 3 // still 3: one hop per differing coordinate
		}
		if st.Diameter != wantD {
			t.Fatalf("c=%d: diameter=%d, want %d", c, st.Diameter, wantD)
		}
	}
}

func TestDimensionCliques(t *testing.T) {
	fb := musttest.Must(New(4))
	g := fb.Graph()
	// Any two routers differing in exactly one coordinate are adjacent.
	for u := 0; u < g.N(); u++ {
		ux, uy, uz := fb.Coords(u)
		for v := u + 1; v < g.N(); v++ {
			vx, vy, vz := fb.Coords(v)
			diff := 0
			if ux != vx {
				diff++
			}
			if uy != vy {
				diff++
			}
			if uz != vz {
				diff++
			}
			if (diff == 1) != g.HasEdge(u, v) {
				t.Fatalf("adjacency wrong for %v-%v (diff=%d)", u, v, diff)
			}
		}
	}
}

func TestInterface(t *testing.T) {
	var _ topo.Topology = musttest.Must(New(2))
}
