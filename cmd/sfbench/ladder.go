package main

import (
	"fmt"
	"slices"
	"time"

	"slimfly/internal/gf"
	"slimfly/internal/roster"
	"slimfly/internal/route"
	"slimfly/internal/scenario"
	"slimfly/internal/sim"
	"slimfly/internal/stats"
	"slimfly/internal/topo"
	"slimfly/internal/topo/slimfly"
	"slimfly/internal/traffic"
)

// ladderSize is the build_ladder workload: construction with almost no
// stepping, the mirror image of the engine workloads.
type ladderSize struct {
	orders      []int // Slim Fly orders, each built under the auto and the computed policy
	p           int   // concentration, kept small: endpoints are not what is built here
	rosterN     []int // every registry kind near each of these endpoint counts
	layeringQ   []int // orders whose tables also get a DFSSSP VC layering
	parityQ     int   // computed vs tables NextPort parity (and lookup timing) at this order
	parityPairs int
	lookupPairs int // traced run only
}

var ladderFull = ladderSize{
	orders:  []int{5, 7, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43},
	p:       4,
	rosterN: []int{1000, 5000}, layeringQ: []int{7, 11},
	parityQ: 19, parityPairs: 100_000, lookupPairs: 1_000_000,
}

// network is what the ladder pins about each network it builds.
type network struct {
	Name      string `json:"name"`
	Q         int    `json:"q,omitempty"` // Slim Fly order, where the network is one built by order
	Backend   string `json:"backend"`
	Routers   int    `json:"routers"`
	Endpoints int    `json:"endpoints"`
	Diameter  int    `json:"diameter"`
	Delivered int64  `json:"smoke_delivered"`
}

// ladderRep is one pass over the whole ladder.
type ladderRep struct {
	networks   []network
	layer      map[string]time.Duration // traced: summed span time per layer call
	tableBytes int64
	vcs        int
	err        error
}

// buildNetwork builds one topology with its routing backend. Un-traced it
// is the scenario layer's one call; traced, the same work is split at the
// gf / topo / route boundaries (gf.New is timed by an extra call of its
// own: slimfly builds its field internally).
func buildNetwork(tr *tracer, rep *ladderRep, id string, spec scenario.TopoSpec, policy route.Policy) (topo.Topology, route.Router, error) {
	if tr == nil {
		return scenario.BuildRouting(spec, policy, 0)
	}
	var tp topo.Topology
	var err error
	if spec.Kind == "SF" && spec.Q > 0 {
		sp := tr.start(id, "gf.New")
		_, err = gf.New(spec.Q)
		rep.layer["gf.New"] += sp.end()
		if err != nil {
			return nil, nil, err
		}
		sp = tr.start(id, "slimfly.New")
		tp, err = slimfly.NewWithConcentration(spec.Q, spec.P)
		rep.layer["slimfly.New"] += sp.end()
	} else {
		sp := tr.start(id, "roster.Near")
		tp, err = roster.Near(roster.Kind(spec.Kind), spec.N, spec.Seed)
		rep.layer["roster.Near"] += sp.end()
	}
	if err != nil {
		return nil, nil, err
	}
	sp := tr.start(id, "route.Select")
	rt, err := route.Select(tp.Graph(), oracleOf(tp), policy, 0)
	d := sp.end()
	if err == nil {
		rep.layer["route."+rt.Backend()] += d
	}
	return tp, rt, err
}

// smoke proves the built network steppable: sim.New and 25 cycles.
func smoke(tr *tracer, rep *ladderRep, id string, tp topo.Topology, rt route.Router, seed uint64) (sim.Result, error) {
	sp := tr.start(id, "sim.New")
	s, err := sim.New(sim.Config{
		Topo: tp, Router: rt, Algo: sim.MIN{}, Pattern: traffic.Uniform{N: tp.Endpoints()},
		Load: 0.1, Warmup: 5, Measure: 15, Drain: 5, Seed: seed,
	})
	if d := sp.end(); tr != nil {
		rep.layer["sim.New"] += d
	}
	if err != nil {
		return sim.Result{}, err
	}
	sp = tr.start(id, "Sim.Run")
	res := s.Run() // Run closes the Sim
	sp.end()
	return res, nil
}

func runLadderRep(tr *tracer, tag string, sz ladderSize, seed uint64) ladderRep {
	rep := ladderRep{layer: make(map[string]time.Duration)}
	add := func(id string, spec scenario.TopoSpec, policy route.Policy) route.Router {
		if rep.err != nil {
			return nil
		}
		span := tr.start(id, "network")
		defer span.end()
		tp, rt, err := buildNetwork(tr, &rep, id, spec, policy)
		if err != nil {
			rep.err = fmt.Errorf("%s under %s: %w", spec, policy, err)
			return nil
		}
		res, err := smoke(tr, &rep, id, tp, rt, seed)
		if err != nil {
			rep.err = fmt.Errorf("%s under %s: sim.New: %w", spec, policy, err)
			return nil
		}
		rep.networks = append(rep.networks, network{
			Name: spec.String(), Q: spec.Q, Backend: rt.Backend(), Routers: tp.Routers(),
			Endpoints: tp.Endpoints(), Diameter: rt.MaxDistance(), Delivered: res.Delivered,
		})
		return rt
	}
	for _, q := range sz.orders {
		spec := scenario.TopoSpec{Kind: "SF", Q: q, P: sz.p}
		id := fmt.Sprintf("%s/%s", tag, spec)
		rt := add(id+"/auto", spec, route.PolicyAuto)
		add(id+"/computed", spec, route.PolicyComputed)
		if rt != nil {
			rep.tableBytes += rt.TableBytes()
		}
		if tb, ok := rt.(*route.Tables); ok && slices.Contains(sz.layeringQ, q) {
			sp := tr.start(id+"/layering", "ComputeVCLayering")
			rep.vcs += route.ComputeVCLayering(tb).Layers
			if d := sp.end(); tr != nil {
				rep.layer["ComputeVCLayering"] += d
			}
		}
	}
	for _, n := range sz.rosterN {
		for _, kind := range roster.Kinds() {
			spec := scenario.TopoSpec{Kind: string(kind), N: n, Seed: seed}
			add(fmt.Sprintf("%s/%s", tag, spec), spec, route.PolicyAuto)
		}
	}
	return rep
}

// ladderSetup is what the workload prepares before anything is timed:
// the order-parityQ network under both backends, steppable, and the
// seeded router pairs the parity check and the lookup timing walk.
func ladderSetup(sz ladderSize, seed uint64, npairs int) (tables, computed route.Router, pairs [][2]int32, err error) {
	spec := scenario.TopoSpec{Kind: "SF", Q: sz.parityQ, P: sz.p}
	tp, tables, err := scenario.BuildRouting(spec, route.PolicyTables, 0)
	if err != nil {
		return
	}
	_, computed, err = scenario.BuildRouting(spec, route.PolicyComputed, 0)
	if err != nil {
		return
	}
	if _, err = smoke(nil, nil, "", tp, tables, seed); err != nil {
		return
	}
	rng := stats.NewRNG(seed)
	n := tp.Routers()
	pairs = make([][2]int32, npairs)
	for i := range pairs {
		pairs[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	return
}

// sink receives the results of the per-call timing loops, so that the
// compiler cannot drop the calls.
var sink int

// lookupNS is the host time of one NextPort call through the Router
// interface, over the seeded pairs.
func lookupNS(rt route.Router, pairs [][2]int32) float64 {
	sum := 0
	t0 := time.Now()
	for _, p := range pairs {
		sum += int(rt.NextPort(int(p[0]), int(p[1])))
	}
	d := time.Since(t0)
	sink = sum
	return float64(d.Nanoseconds()) / float64(len(pairs))
}

func ladderWorkload(r *run, sz ladderSize) {
	seed := r.rng.Uint64()
	npairs := sz.parityPairs
	if r.tr != nil {
		npairs = max(npairs, sz.lookupPairs)
	}
	var tables, computed route.Router
	var pairs [][2]int32
	err := r.setUp(func(int) (_ func(), err error) {
		tables, computed, pairs, err = ladderSetup(sz, seed, npairs)
		return nil, err
	})
	if !r.opErr(err, "set-up") {
		return
	}
	mismatch := 0
	for _, p := range pairs[:sz.parityPairs] {
		if tables.NextPort(int(p[0]), int(p[1])) != computed.NextPort(int(p[0]), int(p[1])) {
			mismatch++
		}
	}
	r.op(mismatch == 0, "computed NextPort differs from tables on %d of %d seeded pairs at q=%d", mismatch, sz.parityPairs, sz.parityQ)

	// Warm-up rep on the bottom rungs, then whole ladders for the budget.
	warm := sz
	warm.orders, warm.rosterN = sz.orders[:min(4, len(sz.orders))], nil
	r.opErr(runLadderRep(nil, "", warm, seed).err, "warm-up rep")
	var plain, traced []float64
	var reps []ladderRep
	r.reps(3, func(n int, tr *tracer) {
		t0 := time.Now()
		rep := runLadderRep(tr, fmt.Sprintf("rep-%d", n), sz, seed)
		d := time.Since(t0).Seconds()
		if !r.opErr(rep.err, "ladder rep") {
			return
		}
		reps = append(reps, rep)
		if tr == nil {
			plain = append(plain, d)
		} else {
			traced = append(traced, d)
		}
	})
	if len(reps) == 0 {
		return
	}
	first := reps[0]
	for i, rep := range reps {
		r.op(slices.Equal(rep.networks, first.networks), "ladder rep %d built different networks than rep 0", i)
	}
	for _, nw := range first.networks {
		if q := nw.Q; q > 0 {
			r.op(nw.Diameter == 2 && nw.Routers == 2*q*q, "%s: diameter %d, %d routers; want 2 and %d", nw.Name, nw.Diameter, nw.Routers, 2*q*q)
		}
		r.op(nw.Delivered > 0, "%s (%s): the 25-cycle smoke run delivered nothing", nw.Name, nw.Backend)
	}
	r.checkRef(map[string]any{"networks": first.networks, "table_bytes": first.tableBytes, "dfsssp_vcs": first.vcs})

	if r.tr == nil {
		r.set("unit_s", fastTime(plain))
		r.set("work_per_s", float64(len(first.networks))/fastTime(plain))
		return
	}
	r.set("bench.trace_overhead_pct", pctOver(fastTime(traced), fastTime(plain)))
	layer := func(name string) []time.Duration {
		var ds []time.Duration
		for _, rep := range reps {
			if d, ok := rep.layer[name]; ok {
				ds = append(ds, d)
			}
		}
		return ds
	}
	r.set("gf.new_us", median(micros(layer("gf.New"))))
	r.set("topo.slimfly_new_ms", median(millis(layer("slimfly.New"))))
	r.set("topo.roster_build_ms", median(millis(layer("roster.Near"))))
	r.set("route.tables_build_ms", median(millis(layer("route.tables"))))
	r.set("route.computed_build_ms", median(millis(layer("route.computed"))))
	r.set("route.dfsssp_layering_ms", median(millis(layer("ComputeVCLayering"))))
	r.set("sim.new_ms", median(millis(layer("sim.New"))))
	r.set("route.tables_bytes", float64(first.tableBytes))
	r.set("route.dfsssp_vcs", float64(first.vcs))
	r.set("route.next_port_ns.tables", lookupNS(tables, pairs))
	r.set("route.next_port_ns.computed", lookupNS(computed, pairs))
	r.set("gf.mul_ns", mulNS(pairs))
}

// mulNS is the host time of one Field.Mul in GF(27), a prime-power field
// (log/antilog tables), over the seeded pairs.
func mulNS(pairs [][2]int32) float64 {
	f, err := gf.New(27)
	if err != nil {
		return 0
	}
	sum := 0
	t0 := time.Now()
	for _, p := range pairs {
		sum += f.Mul(int(p[0])%27, int(p[1])%27)
	}
	d := time.Since(t0)
	sink = sum
	return float64(d.Nanoseconds()) / float64(len(pairs))
}
