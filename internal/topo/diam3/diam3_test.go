package diam3

import "testing"

func TestPolarityGraphStructure(t *testing.T) {
	for _, u := range []int{2, 3, 4, 5, 7, 9} {
		g, err := PolarityGraph(u)
		if err != nil {
			t.Fatalf("u=%d: %v", u, err)
		}
		want := u*u + u + 1
		if g.N() != want {
			t.Fatalf("u=%d: N=%d, want %d", u, g.N(), want)
		}
		// Polarity graphs: u+1 absolute points of degree u, the rest
		// degree u+1.
		lo, hi := 0, 0
		for v := 0; v < g.N(); v++ {
			switch g.Degree(v) {
			case u:
				lo++
			case u + 1:
				hi++
			default:
				t.Fatalf("u=%d: vertex %d has degree %d", u, v, g.Degree(v))
			}
		}
		if lo != u+1 {
			t.Errorf("u=%d: %d absolute points, want %d", u, lo, u+1)
		}
		st := g.AllPairsStats()
		if !st.Connected || st.Diameter != 2 {
			t.Fatalf("u=%d: stats=%+v, want connected diameter 2", u, st)
		}
	}
}

func TestPolarityGraphInvalid(t *testing.T) {
	if _, err := PolarityGraph(6); err == nil {
		t.Error("u=6 accepted")
	}
}

func TestBDFAndDELModels(t *testing.T) {
	// Section II-C: BDF achieves 30% and DEL 68% of the Moore bound; spot
	// check the formulas at the paper's k' = 96 region.
	if BDFRadix(63) != 96 {
		t.Errorf("BDFRadix(63) = %d, want 96", BDFRadix(63))
	}
	nr := BDFRouters(96)
	// 8/27*96^3 - 4/9*96^2 + 2/3*96 = 262144 - 4096 + 64.
	if nr != 258112 {
		t.Errorf("BDFRouters(96) = %d, want 258112", nr)
	}
	kp, del := DELParams(9)
	if kp != 100 {
		t.Errorf("DEL k' = %d, want 100", kp)
	}
	if del != 100*82*82 {
		t.Errorf("DEL Nr = %d, want %d", del, 100*82*82)
	}
}
