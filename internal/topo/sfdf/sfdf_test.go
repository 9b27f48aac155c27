package sfdf

import (
	"testing"

	"slimfly/internal/musttest"
	"slimfly/internal/topo"
	"slimfly/internal/topo/slimfly"
)

func TestInvalid(t *testing.T) {
	if _, err := New(5, 1, 1, 0); err == nil {
		t.Error("1 group accepted")
	}
	if _, err := New(5, 3, 0, 0); err == nil {
		t.Error("h=0 accepted")
	}
	if _, err := New(5, 1000, 1, 0); err == nil {
		t.Error("too many groups for available global channels")
	}
	if _, err := New(6, 3, 1, 0); err == nil {
		t.Error("invalid SF order accepted")
	}
}

func TestStructure(t *testing.T) {
	s := musttest.Must(New(5, 9, 1, 0))
	if s.Routers() != 9*50 {
		t.Fatalf("routers = %d", s.Routers())
	}
	// Balanced SF concentration inherited: p = 4.
	if s.Concentration() != 4 {
		t.Errorf("p = %d, want 4", s.Concentration())
	}
	// Exactly one global channel between every pair of groups.
	counts := make(map[[2]int]int)
	for _, e := range s.Graph().Edges() {
		gu, gv := s.Group(int(e.U)), s.Group(int(e.V))
		if gu == gv {
			continue
		}
		if gu > gv {
			gu, gv = gv, gu
		}
		counts[[2]int{gu, gv}]++
	}
	if len(counts) != 9*8/2 {
		t.Fatalf("connected group pairs = %d, want 36", len(counts))
	}
	for pair, c := range counts {
		if c != 1 {
			t.Errorf("group pair %v has %d channels", pair, c)
		}
	}
}

func TestDiameterBound(t *testing.T) {
	// Worst case: 2 local hops + global + 2 local hops = 5; in practice
	// the measured diameter is often smaller for few groups.
	s := musttest.Must(New(5, 6, 1, 0))
	st := s.Graph().AllPairsStats()
	if !st.Connected {
		t.Fatal("disconnected")
	}
	if st.Diameter > s.DesignDiameter() {
		t.Errorf("measured diameter %d exceeds design bound %d", st.Diameter, s.DesignDiameter())
	}
}

// TestRadixAdvantageOverCliqueDF verifies the Section VII-B motivation: an
// SF group of 50 routers offers the same global connectivity as a clique
// group while using far fewer local links per router (7 vs 49).
func TestRadixAdvantageOverCliqueDF(t *testing.T) {
	s := musttest.Must(New(5, 9, 1, 0))
	sf := slimfly.MustNew(5)
	localDegree := sf.NetworkRadix() // 7
	cliqueDegree := sf.Routers() - 1 // 49 for a same-size DF group
	if localDegree*4 > cliqueDegree {
		t.Errorf("SF group local degree %d not far below clique %d", localDegree, cliqueDegree)
	}
	// Network radix of the combined topology: local 7 + at most h+1 global.
	if s.NetworkRadix() > localDegree+2 {
		t.Errorf("network radix %d unexpectedly high", s.NetworkRadix())
	}
}

func TestInterface(t *testing.T) {
	var _ topo.Topology = musttest.Must(New(3, 4, 1, 0))
}
