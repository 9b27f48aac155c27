package route_test

// The parity wall for algebraic backends: every answer the computed
// backend gives must be byte-equal to the BFS tables built on the same
// graph -- distances, next hops, ports, bulk rows, Valiant lengths and
// the diameter. The cases cover every family with an oracle and, for
// Slim Fly, every delta class of q = 4w + delta including extension
// fields (4 = 2^2, 8 = 2^3, 9 = 3^2, 16 = 2^4, 25 = 5^2, 27 = 3^3,
// 32 = 2^5). Slim Fly answers next ports in closed form (route.PortOracle);
// scanOnly hides that capability, so the same wall also holds the generic
// adjacency scan to the tables and the closed form to the scan.

import (
	"errors"
	"fmt"
	"testing"

	"slimfly/internal/graph"
	"slimfly/internal/musttest"
	"slimfly/internal/route"
	"slimfly/internal/stats"
	"slimfly/internal/topo/fattree"
	"slimfly/internal/topo/hypercube"
	"slimfly/internal/topo/slimfly"
	"slimfly/internal/topo/torus"
)

// checkParity cross-checks the computed backend against BFS tables on
// every (source, destination) pair.
func checkParity(t *testing.T, g *graph.Graph, o route.Oracle) {
	t.Helper()
	tb := route.Build(g)
	c := route.NewComputed(g, o)
	if got, want := c.MaxDistance(), tb.MaxDistance(); got != want {
		t.Fatalf("MaxDistance: computed %d, tables %d", got, want)
	}
	n := g.N()
	for u := 0; u < n; u++ {
		for d := 0; d < n; d++ {
			if gd, wd := c.Distance(u, d), tb.Distance(u, d); gd != wd {
				t.Fatalf("Distance(%d,%d): computed %d, tables %d", u, d, gd, wd)
			}
			if gp, wp := c.NextPort(u, d), tb.NextPort(u, d); gp != wp {
				t.Fatalf("NextPort(%d,%d): computed %d, tables %d", u, d, gp, wp)
			}
			if gh, wh := c.NextHop(u, d), tb.NextHop(u, d); gh != wh {
				t.Fatalf("NextHop(%d,%d): computed %d, tables %d", u, d, gh, wh)
			}
		}
	}
	// Valiant lengths on a deterministic triple sample.
	for i := 0; i < n; i++ {
		s, r, d := i, (i*7+3)%n, (i*13+1)%n
		if gv, wv := c.ValiantLen(s, r, d), tb.ValiantLen(s, r, d); gv != wv {
			t.Fatalf("ValiantLen(%d,%d,%d): computed %d, tables %d", s, r, d, gv, wv)
		}
	}
}

func TestComputedMatchesTablesSlimFly(t *testing.T) {
	// Every delta class and field kind, all pairs: prime delta=+1 (5, 13),
	// prime delta=-1 (7, 11, 19), char-2 extension delta=0 (4, 8, 16, 32),
	// odd prime power delta=+1 (9, 25) and delta=-1 (27).
	for _, q := range []int{4, 5, 7, 8, 9, 11, 13, 16, 19, 25, 27, 32} {
		q := q
		t.Run(fmt.Sprintf("q%d", q), func(t *testing.T) {
			t.Parallel()
			sf := slimfly.MustNew(q)
			checkParity(t, sf.Graph(), sf)
		})
	}
}

// scanOnly strips an oracle down to route.Oracle, hiding any PortOracle
// capability: NewComputed then derives next ports by the adjacency scan.
type scanOnly struct{ route.Oracle }

// TestComputedClosedFormMatchesScanQ43 covers the scale where computed is
// the only backend (the tables would be ~123 MiB): 10^5 seeded pairs of
// the closed form against the generic scan over the same oracle.
func TestComputedClosedFormMatchesScanQ43(t *testing.T) {
	sf, err := slimfly.NewWithConcentration(43, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := sf.Graph()
	closed := route.NewComputed(g, sf)
	scan := route.NewComputed(g, scanOnly{sf})
	rng := stats.NewRNG(43)
	for i := 0; i < 100000; i++ {
		u, d := rng.Intn(g.N()), rng.Intn(g.N())
		if got, want := closed.NextPort(u, d), scan.NextPort(u, d); got != want {
			t.Fatalf("NextPort(%d,%d): closed form %d, scan %d", u, d, got, want)
		}
		if got, want := closed.NextHop(u, d), scan.NextHop(u, d); got != want {
			t.Fatalf("NextHop(%d,%d): closed form %d, scan %d", u, d, got, want)
		}
	}
}

// countingOracle forwards to a Slim Fly and counts the calls, so a test
// can tell the closed form from the scan by what each asks of the oracle.
type countingOracle struct {
	sf                   *slimfly.SlimFly
	distCalls, portCalls int
}

func (c *countingOracle) RouterDistance(u, d int) int {
	c.distCalls++
	return c.sf.RouterDistance(u, d)
}
func (c *countingOracle) RouterDiameter() int { return c.sf.RouterDiameter() }
func (c *countingOracle) RouterNextPort(u, d int) int32 {
	c.portCalls++
	return c.sf.RouterNextPort(u, d)
}

// TestComputedUsesPortOracle pins the dispatch: with a PortOracle a
// next-port query on a distance-2 pair is one RouterNextPort call and no
// RouterDistance call at all (the scan would make one per neighbour), so a
// refactor cannot silently fall back to the scan; without the capability
// the scan still passes the whole parity wall.
func TestComputedUsesPortOracle(t *testing.T) {
	sf := slimfly.MustNew(7)
	g := sf.Graph()
	u, d := 0, -1
	for v := 0; v < g.N(); v++ {
		if sf.RouterDistance(u, v) == 2 {
			d = v
			break
		}
	}
	if d < 0 {
		t.Fatal("no distance-2 pair")
	}
	want := route.Build(g)

	co := &countingOracle{sf: sf}
	c := route.NewComputed(g, co)
	if got := c.NextPort(u, d); got != want.NextPort(u, d) {
		t.Fatalf("NextPort(%d,%d) = %d, tables %d", u, d, got, want.NextPort(u, d))
	}
	if got := c.NextHop(u, d); got != want.NextHop(u, d) {
		t.Fatalf("NextHop(%d,%d) = %d, tables %d", u, d, got, want.NextHop(u, d))
	}
	if co.distCalls != 0 || co.portCalls != 2 {
		t.Fatalf("closed form made %d RouterDistance and %d RouterNextPort calls, want 0 and 2",
			co.distCalls, co.portCalls)
	}

	so := &countingOracle{sf: sf}
	s := route.NewComputed(g, scanOnly{so})
	if got := s.NextPort(u, d); got != want.NextPort(u, d) {
		t.Fatalf("scan NextPort(%d,%d) = %d, tables %d", u, d, got, want.NextPort(u, d))
	}
	if so.portCalls != 0 || so.distCalls < 2 {
		t.Fatalf("scan made %d RouterNextPort and %d RouterDistance calls, want 0 and >= 2", so.portCalls, so.distCalls)
	}
	checkParity(t, g, scanOnly{sf})
}

func TestComputedMatchesTablesHypercube(t *testing.T) {
	for _, dim := range []int{1, 3, 5, 7} {
		hc := musttest.Must(hypercube.New(dim))
		checkParity(t, hc.Graph(), hc)
	}
}

func TestComputedMatchesTablesTorus(t *testing.T) {
	for _, dims := range [][]int{{4}, {2, 2}, {4, 3, 2}, {5, 4, 3}, {3, 3, 3, 3, 3}, {7, 2}} {
		tt := musttest.Must(torus.New(dims, 1))
		checkParity(t, tt.Graph(), tt)
	}
}

func TestComputedMatchesTablesFatTree(t *testing.T) {
	for _, p := range []int{2, 3, 4, 6} {
		ft := musttest.Must(fattree.New(p))
		checkParity(t, ft.Graph(), ft)
	}
}

func TestSelectPolicies(t *testing.T) {
	sf := slimfly.MustNew(5)
	g := sf.Graph()
	est := route.EstimateTableBytes(g.N())

	// auto under budget -> tables.
	rt, err := route.Select(g, sf, route.PolicyAuto, 0)
	if err != nil || rt.Backend() != "tables" {
		t.Fatalf("auto under budget: backend %v err %v, want tables", rt, err)
	}
	// auto over budget with an oracle -> computed.
	rt, err = route.Select(g, sf, route.PolicyAuto, est-1)
	if err != nil || rt.Backend() != "computed" {
		t.Fatalf("auto over budget: backend %v err %v, want computed", rt, err)
	}
	// auto over budget without an oracle -> tables anyway.
	rt, err = route.Select(g, nil, route.PolicyAuto, est-1)
	if err != nil || rt.Backend() != "tables" {
		t.Fatalf("auto no oracle: backend %v err %v, want tables", rt, err)
	}
	// forced computed with an oracle.
	rt, err = route.Select(g, sf, route.PolicyComputed, 0)
	if err != nil || rt.Backend() != "computed" {
		t.Fatalf("computed: backend %v err %v", rt, err)
	}
	// forced computed without an oracle falls back to tables.
	rt, err = route.Select(g, nil, route.PolicyComputed, 0)
	if err != nil || rt.Backend() != "tables" {
		t.Fatalf("computed fallback: backend %v err %v", rt, err)
	}
	// forced tables over budget is a structured rejection.
	_, err = route.Select(g, sf, route.PolicyTables, est-1)
	var be *route.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("tables over budget: err %v, want *BudgetError", err)
	}
	if be.Routers != g.N() || be.EstimatedBytes != est || be.Budget != est-1 {
		t.Fatalf("BudgetError fields: %+v", be)
	}
	// forced tables under budget succeeds.
	rt, err = route.Select(g, sf, route.PolicyTables, 0)
	if err != nil || rt.Backend() != "tables" {
		t.Fatalf("tables: backend %v err %v", rt, err)
	}
}

func TestTablesRouterViews(t *testing.T) {
	sf := slimfly.MustNew(5)
	var rt route.Router = route.Build(sf.Graph())
	if rt.Graph() != sf.Graph() {
		t.Fatal("Tables.Graph mismatch")
	}
	if rt.Backend() != "tables" {
		t.Fatalf("Tables.Backend = %q", rt.Backend())
	}
	if got, want := rt.TableBytes(), route.EstimateTableBytes(sf.Graph().N()); got != want {
		t.Fatalf("Tables.TableBytes = %d, want %d", got, want)
	}
	// The flat-table capability is what the simulator hot path keys on.
	if _, ok := rt.(route.FlatPorter); !ok {
		t.Fatal("Tables must implement route.FlatPorter")
	}
	if _, ok := any(route.NewComputed(sf.Graph(), sf)).(route.FlatPorter); ok {
		t.Fatal("Computed must not claim FlatPorter")
	}
}

// TestAugmentedSlimFlyIsNotAnOracle is the regression test for the
// random-shortcut Slim Fly: it used to be a *SlimFly, so it advertised the
// MMS closed forms while its graph had extra edges (NextPort(0,6) at
// q=5, extra=4, seed=7 read 6 where the tables say 1). The augmented type
// must not unlock the computed backend, and the network it was built from
// must be left un-augmented and on the parity wall.
func TestAugmentedSlimFlyIsNotAnOracle(t *testing.T) {
	aug, err := slimfly.NewWithRandomShortcuts(5, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	o, isOracle := any(aug).(route.Oracle)
	if isOracle {
		t.Fatal("augmented Slim Fly satisfies route.Oracle: its closed forms describe the un-augmented graph")
	}
	rt, err := route.Select(aug.Graph(), o, route.PolicyComputed, 0)
	if err != nil || rt.Backend() != "tables" {
		t.Fatalf("computed policy on the augmented graph: backend %v err %v, want tables", rt, err)
	}
	if aug.SF.Graph().EdgeCount() >= aug.Graph().EdgeCount() {
		t.Fatal("base network shares the augmented graph")
	}
	checkParity(t, aug.SF.Graph(), aug.SF)
}
