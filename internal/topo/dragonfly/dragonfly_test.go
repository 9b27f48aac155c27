package dragonfly

import (
	"testing"

	"slimfly/internal/musttest"
	"slimfly/internal/topo"
)

func TestParamsPaperConfig(t *testing.T) {
	// Section V: DF with k=27, p=7, Nr=1386, N=9702.
	a, h, g, nr, n, k := Params(7)
	if a != 14 || h != 7 || g != 99 || nr != 1386 || n != 9702 || k != 27 {
		t.Errorf("Params(7) = a=%d h=%d g=%d nr=%d n=%d k=%d", a, h, g, nr, n, k)
	}
}

func TestInvalid(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("New(0) succeeded")
	}
}

func TestStructure(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4} {
		df := musttest.Must(New(p))
		g := df.Graph()
		a, h, grps, nr, _, _ := Params(p)
		if g.N() != nr {
			t.Fatalf("p=%d: Nr=%d, want %d", p, g.N(), nr)
		}
		// Every router: a-1 local + h global channels. A graph is
		// d-regular when no degree exceeds d and the degrees sum to n*d.
		if d := a - 1 + h; g.MaxDegree() != d || 2*g.EdgeCount() != g.N()*d {
			t.Fatalf("p=%d: not %d-regular: max degree %d, %d edges", p, d, g.MaxDegree(), g.EdgeCount())
		}
		// Exactly one global channel between every pair of groups.
		counts := make(map[[2]int]int)
		for _, e := range g.Edges() {
			gu, gv := df.Group(int(e.U)), df.Group(int(e.V))
			if gu == gv {
				continue
			}
			if gu > gv {
				gu, gv = gv, gu
			}
			counts[[2]int{gu, gv}]++
		}
		if len(counts) != grps*(grps-1)/2 {
			t.Fatalf("p=%d: %d connected group pairs, want %d", p, len(counts), grps*(grps-1)/2)
		}
		for pair, c := range counts {
			if c != 1 {
				t.Fatalf("p=%d: group pair %v has %d global channels, want 1", p, pair, c)
			}
		}
	}
}

func TestDiameter(t *testing.T) {
	for _, p := range []int{2, 3} {
		df := musttest.Must(New(p))
		st := df.Graph().AllPairsStats()
		if !st.Connected {
			t.Fatalf("p=%d disconnected", p)
		}
		if st.Diameter != 3 {
			t.Errorf("p=%d: diameter=%d, want 3", p, st.Diameter)
		}
	}
}

func TestInterface(t *testing.T) {
	var _ topo.Topology = musttest.Must(New(2))
	df := musttest.Must(New(2))
	if df.Radix() != 7 { // 4p-1
		t.Errorf("radix = %d, want 7", df.Radix())
	}
}
