package longhop

import (
	"testing"

	"slimfly/internal/topo"
)

// MustNew is New but panics on error.
func MustNew(n, extra int) *LongHop {
	lh, err := New(n, extra)
	if err != nil {
		panic(err)
	}
	return lh
}

func TestInvalid(t *testing.T) {
	if _, err := New(2, 1); err == nil {
		t.Error("n=2 accepted")
	}
	if _, err := New(8, 0); err == nil {
		t.Error("extra=0 accepted")
	}
	if _, err := New(8, 8); err == nil {
		t.Error("extra=n accepted")
	}
}

func TestStructure(t *testing.T) {
	for _, tc := range []struct{ n, extra int }{{8, 4}, {10, 5}, {13, 6}} {
		lh := MustNew(tc.n, tc.extra)
		g := lh.Graph()
		if g.N() != 1<<tc.n {
			t.Fatalf("n=%d: N=%d", tc.n, g.N())
		}
		if d, reg := g.IsRegular(); !reg || d != tc.n+tc.extra {
			t.Fatalf("n=%d extra=%d: degree=%d regular=%v", tc.n, tc.extra, d, reg)
		}
		if len(lh.Masks) != tc.extra {
			t.Fatalf("masks=%v, want %d", lh.Masks, tc.extra)
		}
	}
}

func TestDiameterShrinks(t *testing.T) {
	// The paper reports LH-HC diameters 4-6 over 2^8..2^13 endpoints.
	for _, tc := range []struct{ n, extra int }{{8, 4}, {10, 5}, {12, 6}} {
		lh := MustNew(tc.n, tc.extra)
		if lh.DesignDiameter() >= tc.n {
			t.Errorf("n=%d: diameter %d did not shrink below hypercube's %d",
				tc.n, lh.DesignDiameter(), tc.n)
		}
		if lh.DesignDiameter() > 6 {
			t.Errorf("n=%d: diameter %d > 6 (paper range 4-6)", tc.n, lh.DesignDiameter())
		}
	}
}

func TestPaperRadixExample(t *testing.T) {
	// Table IV: LH-HC with N=8192 has k=19, i.e. n=13 and L=6 extra links.
	lh := MustNew(13, DefaultExtra(13))
	// Radix() = k' + p = (13+7) + 1 = 21 with DefaultExtra(13) = 7 long
	// links and p = 1 endpoint port. The paper's 19 counts only 13+6
	// network ports; pin ours.
	if lh.Radix() != 21 {
		t.Errorf("k = %d, want 21 (13 cube + 7 long + 1 endpoint)", lh.Radix())
	}
	if lh.NetworkRadix() != 20 {
		t.Errorf("k' = %d, want 20 (13 cube + 7 long)", lh.NetworkRadix())
	}
	if lh.Endpoints() != 8192 {
		t.Errorf("N = %d", lh.Endpoints())
	}
}

func TestInterface(t *testing.T) {
	var _ topo.Topology = MustNew(8, 4)
}
