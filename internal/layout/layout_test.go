package layout

import (
	"testing"

	"slimfly/internal/musttest"
	"slimfly/internal/topo/dragonfly"
	"slimfly/internal/topo/fattree"
	"slimfly/internal/topo/fbutterfly"
	"slimfly/internal/topo/slimfly"
	"slimfly/internal/topo/torus"
)

func TestSlimFlyLayout(t *testing.T) {
	sf := slimfly.MustNew(5)
	l := For(sf)
	if l.Racks != 5 {
		t.Fatalf("racks = %d, want q = 5", l.Racks)
	}
	if len(l.Cables) != sf.Graph().EdgeCount() {
		t.Fatalf("cables = %d, want %d", len(l.Cables), sf.Graph().EdgeCount())
	}
	// Section VI-A: each rack pairs column x of both subgraphs: 2q routers
	// per rack, and exactly 2q fiber cables between every rack pair.
	perRack := make(map[int32]int)
	for _, r := range l.RackOf {
		perRack[r]++
	}
	for rack, n := range perRack {
		if n != 10 {
			t.Errorf("rack %d holds %d routers, want 2q = 10", rack, n)
		}
	}
	// Fiber count: q*(q-1)/2 pairs * 2q cables.
	wantFiber := 5 * 4 / 2 * 10
	if l.Fiber() != wantFiber {
		t.Errorf("fiber = %d, want %d", l.Fiber(), wantFiber)
	}
	if l.Electric() != sf.Graph().EdgeCount()-wantFiber {
		t.Errorf("electric = %d", l.Electric())
	}
	if l.EndpointCables != sf.Endpoints() {
		t.Errorf("endpoint cables = %d", l.EndpointCables)
	}
}

func TestDragonflyLayout(t *testing.T) {
	df := musttest.Must(dragonfly.New(2))
	l := For(df)
	if l.Racks != df.Gn {
		t.Fatalf("racks = %d, want %d groups", l.Racks, df.Gn)
	}
	// Local clique cables are intra-rack electric: g * a(a-1)/2.
	wantElectric := df.Gn * df.A * (df.A - 1) / 2
	if l.Electric() != wantElectric {
		t.Errorf("electric = %d, want %d", l.Electric(), wantElectric)
	}
	// One global fiber cable per group pair.
	if l.Fiber() != df.Gn*(df.Gn-1)/2 {
		t.Errorf("fiber = %d, want %d", l.Fiber(), df.Gn*(df.Gn-1)/2)
	}
}

func TestTorusAllElectric(t *testing.T) {
	tor := musttest.Must(torus.New([]int{8, 8, 8}, 1))
	l := For(tor)
	if l.Fiber() != 0 {
		t.Errorf("folded torus has %d fiber cables, want 0", l.Fiber())
	}
	if l.Electric() != tor.Graph().EdgeCount() {
		t.Errorf("electric = %d, want all %d", l.Electric(), tor.Graph().EdgeCount())
	}
}

func TestFatTreeLayout(t *testing.T) {
	ft := musttest.Must(fattree.New(4))
	l := For(ft)
	// Pods 0..3 plus ceil(4/2)=2 core racks.
	if l.Racks != 6 {
		t.Fatalf("racks = %d, want 6", l.Racks)
	}
	// Edge-agg cables stay inside pods (electric); agg-core cross racks.
	if l.Electric() != 4*4*4 {
		t.Errorf("electric = %d, want p^3 = 64 intra-pod", l.Electric())
	}
	if l.Fiber() != 4*4*4 {
		t.Errorf("fiber = %d, want p^3 = 64 agg-core", l.Fiber())
	}
}

func TestFBFLayout(t *testing.T) {
	fb := musttest.Must(fbutterfly.New(3))
	l := For(fb)
	if l.Racks != 9 {
		t.Fatalf("racks = %d, want c^2 = 9", l.Racks)
	}
	// z-dimension cliques intra-rack: c^2 racks * c(c-1)/2 each.
	if l.Electric() != 9*3 {
		t.Errorf("electric = %d, want 27", l.Electric())
	}
}

func TestCableLengthsPositive(t *testing.T) {
	sf := slimfly.MustNew(5)
	l := For(sf)
	for _, c := range l.Cables {
		if c.Length <= 0 {
			t.Fatalf("non-positive cable length %v", c.Length)
		}
		if c.Fiber && c.Length < globalOverhead {
			t.Fatalf("fiber cable shorter than overhead: %v", c.Length)
		}
		if !c.Fiber && c.Length != intraRackLen {
			t.Fatalf("electric cable length %v, want %v", c.Length, intraRackLen)
		}
	}
}

func TestGridNearSquare(t *testing.T) {
	pos := grid(19)
	w := 0
	for _, p := range pos {
		if p[0] > w {
			w = p[0]
		}
	}
	if w+1 != 5 { // ceil(sqrt(19)) = 5
		t.Errorf("grid width = %d, want 5", w+1)
	}
}
