package slimfly

import (
	"testing"

	"slimfly/internal/topo"
)

// validOrders is the library of q values exercised by the test suite; it
// covers all three delta classes and prime-power (non-prime) fields
// (9, 25, 27, 32, 49).
var validOrders = []int{3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 32, 37}

func TestParams(t *testing.T) {
	cases := []struct {
		q, kp, nr, delta int
		ok               bool
	}{
		{5, 7, 50, 1, true},     // Hoffman-Singleton
		{19, 29, 722, -1, true}, // the paper's 10830-endpoint case study
		{4, 6, 32, 0, true},
		{17, 25, 578, 1, true},
		{6, 0, 0, 0, false},  // not a prime power
		{2, 0, 0, 0, false},  // q % 4 == 2
		{10, 0, 0, 0, false}, // not a prime power
	}
	for _, c := range cases {
		kp, nr, delta, ok := Params(c.q)
		if ok != c.ok || kp != c.kp || nr != c.nr || delta != c.delta {
			t.Errorf("Params(%d) = (%d,%d,%d,%v), want (%d,%d,%d,%v)",
				c.q, kp, nr, delta, ok, c.kp, c.nr, c.delta, c.ok)
		}
	}
}

func TestNewInvalidOrders(t *testing.T) {
	for _, q := range []int{0, 1, 2, 6, 10, 12, 15} {
		if _, err := New(q); err == nil {
			t.Errorf("New(%d) succeeded, want error", q)
		}
	}
	if _, err := NewWithConcentration(5, 0); err == nil {
		t.Error("zero concentration accepted")
	}
}

// TestStructuralInvariants checks, for every supported order: router count,
// k'-regularity, diameter exactly 2, and connectivity. Diameter 2 is the
// defining property of the MMS construction (Section II-B).
func TestStructuralInvariants(t *testing.T) {
	for _, q := range validOrders {
		q := q
		t.Run(fmtQ(q), func(t *testing.T) {
			t.Parallel()
			sf := MustNew(q)
			kp, nr, _, _ := Params(q)
			g := sf.Graph()
			if g.N() != nr {
				t.Fatalf("q=%d: Nr = %d, want %d", q, g.N(), nr)
			}
			// k'-regular: no degree above k', and the degrees sum to Nr*k'.
			if d := kp; g.MaxDegree() != d || 2*g.EdgeCount() != g.N()*d {
				t.Fatalf("q=%d: not %d-regular: max degree %d, %d edges", q, d, g.MaxDegree(), g.EdgeCount())
			}
			st := g.AllPairsStats()
			if !st.Connected {
				t.Fatalf("q=%d: disconnected", q)
			}
			if st.Diameter != 2 {
				t.Fatalf("q=%d: diameter = %d, want 2", q, st.Diameter)
			}
			if sf.DesignDiameter() != 2 {
				t.Fatalf("q=%d: design diameter = %d", q, sf.DesignDiameter())
			}
		})
	}
}

func fmtQ(q int) string {
	return "q=" + string(rune('0'+q/10)) + string(rune('0'+q%10))
}

func TestHoffmanSingleton(t *testing.T) {
	// q = 5 yields the Hoffman-Singleton graph: 50 vertices, 7-regular,
	// 175 edges, diameter 2, girth 5 -- the unique (7,5)-cage.
	sf := MustNew(5)
	g := sf.Graph()
	if g.N() != 50 {
		t.Fatalf("N = %d, want 50", g.N())
	}
	if g.EdgeCount() != 175 {
		t.Fatalf("edges = %d, want 175", g.EdgeCount())
	}
	if d := 7; g.MaxDegree() != d || 2*g.EdgeCount() != g.N()*d {
		t.Fatalf("not %d-regular: max degree %d, %d edges", d, g.MaxDegree(), g.EdgeCount())
	}
	// Girth 5: no triangles, no 4-cycles. A Moore graph of degree k and
	// diameter 2 has exactly 1 + k + k(k-1) vertices = 50 for k=7, and
	// every non-adjacent pair has exactly one common neighbour, every
	// adjacent pair none.
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			common := 0
			for _, a := range g.Neighbors(u) {
				for _, b := range g.Neighbors(v) {
					if a == b {
						common++
					}
				}
			}
			if g.HasEdge(u, v) {
				if common != 0 {
					t.Fatalf("adjacent pair (%d,%d) has %d common neighbours, want 0 (girth 5)", u, v, common)
				}
			} else if common != 1 {
				t.Fatalf("non-adjacent pair (%d,%d) has %d common neighbours, want 1 (Moore graph)", u, v, common)
			}
		}
	}
}

func TestPaperExampleGeneratorSetsQ5(t *testing.T) {
	// Paper Section II-B1d: q=5, xi=2, X = {1,4}, X' = {2,3}.
	sf := MustNew(5)
	wantX, wantXp := []int{1, 4}, []int{2, 3}
	if len(sf.X) != 2 || sf.X[0] != wantX[0] || sf.X[1] != wantX[1] {
		t.Errorf("X = %v, want %v", sf.X, wantX)
	}
	if len(sf.Xp) != 2 || sf.Xp[0] != wantXp[0] || sf.Xp[1] != wantXp[1] {
		t.Errorf("X' = %v, want %v", sf.Xp, wantXp)
	}
}

func TestBalancedConcentration(t *testing.T) {
	// Section II-B2: p ~ ceil(k'/2); the q=19 network has k'=29, p=15,
	// N = 10830 -- the paper's headline configuration.
	sf := MustNew(19)
	if sf.Concentration() != 15 {
		t.Errorf("p = %d, want 15", sf.Concentration())
	}
	if sf.Endpoints() != 10830 {
		t.Errorf("N = %d, want 10830", sf.Endpoints())
	}
	if sf.Radix() != 44 {
		t.Errorf("k = %d, want 44", sf.Radix())
	}
	if sf.NetworkRadix() != 29 {
		t.Errorf("k' = %d, want 29", sf.NetworkRadix())
	}
}

func TestOversubscribedConcentration(t *testing.T) {
	// Section V-E: q=19 with p in 16..21 connects 11552..15162 endpoints.
	for p, wantN := range map[int]int{16: 11552, 18: 12996, 21: 15162} {
		sf, err := NewWithConcentration(19, p)
		if err != nil {
			t.Fatal(err)
		}
		if sf.Endpoints() != wantN {
			t.Errorf("p=%d: N = %d, want %d", p, sf.Endpoints(), wantN)
		}
	}
}

func TestEndpointMapping(t *testing.T) {
	sf := MustNew(5)
	if sf.Endpoints() != 200 { // p = ceil(7/2) = 4, Nr = 50
		t.Fatalf("N = %d, want 200", sf.Endpoints())
	}
	seen := make(map[int]int)
	for e := 0; e < sf.Endpoints(); e++ {
		seen[sf.EndpointRouter(e)]++
	}
	for r := 0; r < sf.Routers(); r++ {
		if seen[r] != 4 {
			t.Fatalf("router %d hosts %d endpoints, want 4", r, seen[r])
		}
		eps := sf.RouterEndpoints(r)
		if len(eps) != 4 {
			t.Fatalf("RouterEndpoints(%d) = %v", r, eps)
		}
		for _, e := range eps {
			if sf.EndpointRouter(e) != r {
				t.Fatalf("endpoint %d maps to %d, listed under %d", e, sf.EndpointRouter(e), r)
			}
		}
	}
}

func TestRouterIDRoundTrip(t *testing.T) {
	sf := MustNew(7)
	for s := 0; s < 2; s++ {
		for a := 0; a < 7; a++ {
			for b := 0; b < 7; b++ {
				id := sf.RouterID(s, a, b)
				gs, ga, gb := sf.RouterLabel(id)
				if gs != s || ga != a || gb != b {
					t.Fatalf("round trip (%d,%d,%d) -> %d -> (%d,%d,%d)", s, a, b, id, gs, ga, gb)
				}
			}
		}
	}
}

// TestCrossGroupCableCount verifies the layout property of Section VI-A:
// merging column x of subgraph 0 with column m=x of subgraph 1 into racks
// leaves exactly 2q cables between every pair of racks.
func TestCrossGroupCableCount(t *testing.T) {
	sf := MustNew(5)
	q := sf.Q
	rack := func(id int) int { _, a, _ := sf.RouterLabel(id); return a }
	counts := make(map[[2]int]int)
	for _, e := range sf.Graph().Edges() {
		ru, rv := rack(int(e.U)), rack(int(e.V))
		if ru == rv {
			continue
		}
		if ru > rv {
			ru, rv = rv, ru
		}
		counts[[2]int{ru, rv}]++
	}
	if len(counts) != q*(q-1)/2 {
		t.Fatalf("rack pairs with cables = %d, want %d", len(counts), q*(q-1)/2)
	}
	for pair, c := range counts {
		if c != 2*q {
			t.Errorf("rack pair %v has %d cables, want 2q=%d", pair, c, 2*q)
		}
	}
}

func TestValidOrders(t *testing.T) {
	qs := ValidOrders(3, 20)
	want := []int{3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19}
	if len(qs) != len(want) {
		t.Fatalf("ValidOrders = %v, want %v", qs, want)
	}
	for i := range want {
		if qs[i] != want[i] {
			t.Fatalf("ValidOrders = %v, want %v", qs, want)
		}
	}
}

// ForRadix returns the largest valid q whose balanced Slim Fly fits router
// radix k (k' + p <= k), or ok=false if none exists. This answers the
// "network architects must adjust to existing routers" question of
// Section VII-A.
func ForRadix(k int) (q int, ok bool) {
	best := 0
	for cand := 3; ; cand++ {
		kp, _, _, valid := Params(cand)
		if valid {
			if kp+BalancedConcentration(kp) <= k {
				best = cand
			} else if kp > k {
				break
			}
		}
		if cand > 4*k {
			break
		}
	}
	return best, best != 0
}

func TestForRadix(t *testing.T) {
	// A radix-44 router fits the q=19 network (k' = 29, p = 15).
	q, ok := ForRadix(44)
	if !ok || q != 19 {
		t.Errorf("ForRadix(44) = (%d,%v), want (19,true)", q, ok)
	}
	// Tiny radix: nothing fits.
	if _, ok := ForRadix(3); ok {
		t.Error("ForRadix(3) found a network")
	}
}

func TestTopologyInterfaceCompliance(t *testing.T) {
	var _ topo.Topology = MustNew(5)
}

func BenchmarkConstructQ19(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := New(19); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConstructQ32(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := New(32); err != nil {
			b.Fatal(err)
		}
	}
}

// RouterID maps a router label (s, a, b) -- s in {0,1}, a,b in GF(q) -- to
// its dense vertex id. Subgraph 0 routers are (0, x, y); subgraph 1 routers
// are (1, m, c).
func (sf *SlimFly) RouterID(s, a, b int) int {
	return s*sf.Q*sf.Q + a*sf.Q + b
}
