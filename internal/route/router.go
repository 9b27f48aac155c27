package route

import (
	"fmt"

	"slimfly/internal/graph"
)

// Router is the routing backend interface the simulator and the traffic
// generators run on. *Tables (all-pairs tables) is the default,
// fully materialized implementation; *Computed answers the same questions
// algebraically from a topology's construction with O(1) extra memory.
//
// The parity contract: for one graph, every backend must agree with
// Build(g) on every answer, bit for bit. The deterministic tie-break: the
// next hop from u toward d is the LOWEST-ID neighbour of u on a shortest
// path (adjacency lists are sorted, so the port is the first one whose
// distance to d is one less than u's). Build gets it by letting u's
// neighbours claim, in list order, the destinations they are one hop
// closer to; TestBuildMatchesReferenceBFS holds that to a per-destination
// BFS and scan, and TestComputedMatchesTables holds every registered
// topology kind with an algebraic form to Build.
type Router interface {
	// Graph returns the router graph the backend answers for.
	Graph() *graph.Graph
	// Distance returns the hop distance from u to d (-1 if unreachable).
	Distance(u, d int) int
	// NextHop returns the deterministic minimal next hop from u toward d,
	// or -1 if u == d or d is unreachable.
	NextHop(u, d int) int32
	// NextPort returns u's output-port index toward d: the position of
	// NextHop(u, d) in u's sorted adjacency list (-1 if u == d or d is
	// unreachable). For any neighbour v of u, NextPort(u, v) is the port
	// of the direct link.
	NextPort(u, d int) int32
	// ValiantLen returns the length in hops of the Valiant path s -> r -> d.
	ValiantLen(s, r, d int) int
	// MaxDistance returns the diameter of the graph.
	MaxDistance() int
	// TableBytes reports the backend's materialized routing state in
	// bytes -- what this backend costs beyond the graph itself. ~9*n*n for
	// tables, 0 for computed backends.
	TableBytes() int64
	// Backend names the implementation ("tables", "computed") for
	// telemetry and CLI output.
	Backend() string
}

// FlatPorter is the optional bulk capability behind the simulator's
// zero-indirection hot path: a backend that holds the whole source-major
// port table [u*n+d] contiguously exposes it here, and the engine serves
// every PortToward from one array load. Backends without it (computed)
// are consulted per call instead.
type FlatPorter interface {
	NextPortFlat() ([]int32, int)
}

// Oracle is the capability a topology implements to unlock the computed
// backend: an O(1)-ish closed-form hop distance derived from the
// construction (generator-set membership for Slim Fly, XOR popcount for
// hypercubes, per-dimension shortest wrap for tori, level arithmetic for
// fat trees). RouterDistance(u, u) must be 0 and distances must be exact
// -- NewComputed derives every next hop from them, so an off-by-one here
// is a routing error, not an estimate error.
type Oracle interface {
	// RouterDistance returns the exact hop distance between routers u and
	// d in the topology's router graph.
	RouterDistance(u, d int) int
	// RouterDiameter returns the exact diameter of the router graph.
	RouterDiameter() int
}

// PortOracle is the optional capability of an Oracle whose construction
// also yields the next port in closed form (Slim Fly: the middle router of
// every 2-hop path follows from Eqs. 1-3). Computed then answers NextPort
// in O(1) instead of scanning u's neighbours with one RouterDistance
// each. It comes with the parity obligation: the port must be the one the
// scan would find.
type PortOracle interface {
	Oracle
	// RouterNextPort returns the index, in u's sorted adjacency list, of
	// the lowest-id neighbour of u one step closer to d (-1 if u == d).
	RouterNextPort(u, d int) int32
}

// Computed is the algebraic routing backend: distances come from the
// topology's Oracle, and next ports from its PortOracle closed form where
// it has one, else by scanning the sorted adjacency list for the first
// neighbour one step closer. Both are exactly the BFS tie-break, so
// answers are byte-equal to Build(g) with no n*n state. The only memory
// it touches is the graph's own adjacency and the oracle's.
type Computed struct {
	g  *graph.Graph
	o  Oracle
	po PortOracle // o's closed-form next port, nil when it has none
}

// NewComputed builds a computed backend for g answering from oracle o.
// The caller asserts that o describes exactly g (the scenario layer does
// this by construction: the oracle IS the topology that built the graph).
func NewComputed(g *graph.Graph, o Oracle) *Computed {
	po, _ := o.(PortOracle)
	return &Computed{g: g, o: o, po: po}
}

// Graph implements Router.
func (c *Computed) Graph() *graph.Graph { return c.g }

// Distance implements Router.
func (c *Computed) Distance(u, d int) int {
	if u == d {
		return 0
	}
	return c.o.RouterDistance(u, d)
}

// NextPort implements Router: the first (lowest-id) neighbour one step
// closer to d, by its index in u's sorted adjacency list -- from the
// oracle's closed form when it has one. The generic scan short-circuits
// the distance-1 case to a binary search for d itself, the only router at
// distance 0.
//
//sf:hotpath
func (c *Computed) NextPort(u, d int) int32 {
	if c.po != nil {
		return c.po.RouterNextPort(u, d)
	}
	if u == d {
		return -1
	}
	nbr := c.g.Neighbors(u)
	du := c.o.RouterDistance(u, d)
	if du == 1 {
		lo, hi := 0, len(nbr)
		for lo < hi {
			mid := (lo + hi) / 2
			if int(nbr[mid]) < d {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return int32(lo)
	}
	if du < 0 {
		return -1
	}
	for i, v := range nbr {
		if c.o.RouterDistance(int(v), d) == du-1 {
			return int32(i)
		}
	}
	return -1
}

// NextHop implements Router.
func (c *Computed) NextHop(u, d int) int32 {
	p := c.NextPort(u, d)
	if p < 0 {
		return -1
	}
	return c.g.Neighbors(u)[p]
}

// ValiantLen implements Router.
func (c *Computed) ValiantLen(s, r, d int) int {
	return c.Distance(s, r) + c.Distance(d, r)
}

// MaxDistance implements Router.
func (c *Computed) MaxDistance() int { return c.o.RouterDiameter() }

// TableBytes implements Router: the computed backend materializes
// nothing beyond the graph.
func (c *Computed) TableBytes() int64 { return 0 }

// Backend implements Router.
func (c *Computed) Backend() string { return "computed" }

// Policy selects a routing backend. The zero value is PolicyAuto.
type Policy string

// The backend policies.
const (
	// PolicyAuto keeps the flat BFS tables while they fit the memory
	// budget (they are the fastest per-lookup form) and switches to the
	// computed backend above it when the topology has an algebraic form.
	PolicyAuto Policy = "auto"
	// PolicyTables forces the BFS tables; over-budget builds are rejected
	// with a *BudgetError instead of silently allocating gigabytes.
	PolicyTables Policy = "tables"
	// PolicyComputed forces the computed backend where an Oracle exists
	// and falls back to tables for irregular graphs.
	PolicyComputed Policy = "computed"
)

// DefaultTableBudget is the memory ceiling PolicyAuto allows the n*n
// tables before switching to a computed backend: 64 MiB covers every
// topology of the paper's study (SF q=17 costs ~1 MiB, the largest roster
// networks tens of MiB) while SF q=43 (~123 MiB) and beyond go computed.
const DefaultTableBudget = int64(64) << 20

// EstimateTableBytes returns the memory the BFS tables materialize for an
// n-router graph: the flat Dist (1 byte), Next (4) and source-major
// NextPort (4) backings -- 9 bytes per router pair.
func EstimateTableBytes(n int) int64 { return 9 * int64(n) * int64(n) }

// BudgetError reports a tables build rejected because its n*n state would
// exceed the memory budget. It names the estimate so callers (CLIs, the
// sweep service's 4xx bodies) can tell the user what was asked for.
type BudgetError struct {
	Routers        int   `json:"routers"`
	EstimatedBytes int64 `json:"estimated_bytes"`
	Budget         int64 `json:"budget_bytes"`
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("route: BFS tables for %d routers need ~%d MiB (9*n*n = %d bytes), over the %d MiB budget; use the computed backend (or raise the budget)",
		e.Routers, e.EstimatedBytes>>20, e.EstimatedBytes, e.Budget>>20)
}

// Select resolves a routing backend for g under the given policy and
// table-memory budget (<= 0 means DefaultTableBudget). o is the graph's
// algebraic oracle, or nil for irregular graphs -- without one, every
// policy resolves to tables (PolicyComputed included: falling back is the
// documented behaviour for graphs with no closed form, and only
// PolicyTables enforces the budget as a hard error).
func Select(g *graph.Graph, o Oracle, policy Policy, budget int64) (Router, error) {
	if budget <= 0 {
		budget = DefaultTableBudget
	}
	est := EstimateTableBytes(g.N())
	switch policy {
	case PolicyComputed:
		if o != nil {
			return NewComputed(g, o), nil
		}
	case PolicyTables:
		if est > budget {
			return nil, &BudgetError{Routers: g.N(), EstimatedBytes: est, Budget: budget}
		}
	case PolicyAuto, "":
		if o != nil && est > budget {
			return NewComputed(g, o), nil
		}
	default:
		return nil, fmt.Errorf("route: unknown backend policy %q", policy)
	}
	t, err := build(g)
	if err != nil {
		return nil, err
	}
	return t, nil
}
