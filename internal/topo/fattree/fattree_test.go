package fattree

import (
	"testing"

	"slimfly/internal/musttest"
	"slimfly/internal/topo"
)

func TestParamsPaperConfig(t *testing.T) {
	// Section V: FT-3 with k=44, p=22, Nr=1452, N=10648.
	nr, n, k := Params(22)
	if nr != 1452 || n != 10648 || k != 44 {
		t.Errorf("Params(22) = (%d,%d,%d)", nr, n, k)
	}
}

func TestInvalid(t *testing.T) {
	if _, err := New(1); err == nil {
		t.Error("New(1) succeeded")
	}
}

func TestStructure(t *testing.T) {
	for _, p := range []int{2, 3, 4, 6} {
		ft := musttest.Must(New(p))
		g := ft.Graph()
		if g.N() != 3*p*p {
			t.Fatalf("p=%d: Nr=%d", p, g.N())
		}
		for r := 0; r < g.N(); r++ {
			want := 2 * p
			if ft.Level(r) == 2 || ft.Level(r) == 0 {
				want = p // core: p down only; edge: p up (+p endpoints)
			}
			if g.Degree(r) != want {
				t.Fatalf("p=%d: router %d level %d degree %d, want %d",
					p, r, ft.Level(r), g.Degree(r), want)
			}
		}
	}
}

func TestDiameterIs4(t *testing.T) {
	ft := musttest.Must(New(4))
	st := ft.Graph().AllPairsStats()
	if !st.Connected || st.Diameter != 4 {
		t.Errorf("stats = %+v, want connected diameter 4", st)
	}
}

func TestEndpointsOnlyOnEdgeSwitches(t *testing.T) {
	ft := musttest.Must(New(3))
	for e := 0; e < ft.Endpoints(); e++ {
		r := ft.EndpointRouter(e)
		if ft.Level(r) != 0 {
			t.Fatalf("endpoint %d on non-edge switch %d (level %d)", e, r, ft.Level(r))
		}
	}
	// Each edge switch hosts exactly p endpoints.
	for r := 0; r < ft.Arity*ft.Arity; r++ {
		if got := len(ft.RouterEndpoints(r)); got != ft.Arity {
			t.Fatalf("edge switch %d hosts %d endpoints, want %d", r, got, ft.Arity)
		}
	}
	// Aggregation and core switches host none.
	for r := ft.Arity * ft.Arity; r < ft.Routers(); r++ {
		if len(ft.RouterEndpoints(r)) != 0 {
			t.Fatalf("non-edge switch %d hosts endpoints", r)
		}
	}
}

func TestPod(t *testing.T) {
	ft := musttest.Must(New(3))
	if ft.Pod(0) != 0 || ft.Pod(3) != 1 {
		t.Error("edge pod mapping wrong")
	}
	if ft.Pod(2*9+1) != -1 {
		t.Error("core switch should have pod -1")
	}
}

func TestInterface(t *testing.T) {
	var _ topo.Topology = musttest.Must(New(2))
}
