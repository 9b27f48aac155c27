package diam3

import (
	"math/big"
	"testing"
)

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
	// k' = 63, 66 and 75 (u = 41, 43, 49) are where the float form of the
	// formula truncated one router short.
	for kp, want := range map[int]int{63: 72366, 66: 83292, 75: 122550} {
		if got := BDFRouters(kp); got != want {
			t.Errorf("BDFRouters(%d) = %d, want %d", kp, got, want)
		}
	}
	// Every u Figure 5b plots, against the formula in exact rationals.
	for _, u := range []int{3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49, 53, 59, 61} {
		kp := BDFRadix(u)
		k := big.NewRat(int64(kp), 1)
		k2 := new(big.Rat).Mul(k, k)
		k3 := new(big.Rat).Mul(k2, k)
		want := new(big.Rat).Mul(big.NewRat(8, 27), k3)
		want.Sub(want, new(big.Rat).Mul(big.NewRat(4, 9), k2))
		want.Add(want, new(big.Rat).Mul(big.NewRat(2, 3), k))
		if !want.IsInt() || want.Num().Int64() != int64(BDFRouters(kp)) {
			t.Errorf("u = %d: BDFRouters(%d) = %d, want %s", u, kp, BDFRouters(kp), want.RatString())
		}
	}
	kp, del := DELParams(9)
	if kp != 100 {
		t.Errorf("DEL k' = %d, want 100", kp)
	}
	if del != 100*82*82 {
		t.Errorf("DEL Nr = %d, want %d", del, 100*82*82)
	}
}
