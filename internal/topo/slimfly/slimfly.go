// Package slimfly implements the paper's primary contribution: the Slim Fly
// SF MMS topology (Section II-B), built from the McKay-Miller-Siran graph
// family over GF(q) for prime powers q = 4w + delta, delta in {-1, 0, +1}.
//
// The construction follows Section II-B1 exactly:
//
//  1. Build the base field GF(q) and find a primitive element xi.
//  2. Build the generator sets X and X' from powers of xi (the delta = +1
//     formulae appear in the paper; the delta = -1 and delta = 0 cases follow
//     Hafner's geometric realisation, see [35] in the paper).
//  3. Routers are {0,1} x GF(q) x GF(q), connected by
//     (0,x,y) ~ (0,x,y')  iff  y - y'  in X      (Eq. 1)
//     (1,m,c) ~ (1,m,c')  iff  c - c'  in X'     (Eq. 2)
//     (0,x,y) ~ (1,m,c)   iff  y = m*x + c       (Eq. 3)
//
// This yields Nr = 2q^2 routers of network radix k' = (3q - delta)/2 and
// diameter 2. Attaching p ~ ceil(k'/2) endpoints per router (Section II-B2)
// gives a balanced, full-global-bandwidth network.
package slimfly

import (
	"fmt"
	"sort"

	"slimfly/internal/gf"
	"slimfly/internal/graph"
	"slimfly/internal/route"
	"slimfly/internal/topo"
	"slimfly/internal/traffic"
)

// SlimFly is the SF MMS topology for a given prime power q.
type SlimFly struct {
	topo.Base
	Q     int // base field order
	Delta int // q = 4w + delta
	W     int
	F     *gf.Field
	X     []int // generator set for subgraph 0 (Eq. 1)
	Xp    []int // generator set X' for subgraph 1 (Eq. 2)

	// inX/inXp are q-sized membership tables for X and X', the only state
	// the algebraic routing oracle (RouterDistance) needs: adjacency within
	// a subgraph is generator-set membership of the label difference, so
	// distances never touch the O(n^2) tables.
	inX, inXp []bool

	// The closed-form next-port state (RouterNextPort), O(q^2) = O(n) in
	// all and built once by NewWithConcentration -- like inX/inXp it
	// belongs to the topology, not to a routing backend.
	//
	// lab[id] is router id's label (a, b); the subgraph is id >= q*q. A
	// load here keeps the two div/mod pairs of the dense-id arithmetic
	// off the per-lookup path.
	//
	// linePort[s][b*q+b'] is the port, counted within the block of
	// same-line neighbours, that a subgraph-s router at offset b uses
	// toward offset b' of its own line (column x for s=0, slope m for
	// s=1): the rank of b' among b's line-neighbours when the two are
	// adjacent, else the rank of their lowest common line-neighbour; -1
	// on the diagonal.
	lab      []label
	linePort [2][]int32
}

// label is a router's position (x, y) or (m, c) within its subgraph.
type label struct{ a, b uint16 }

// Params reports the analytic parameters for a Slim Fly with the given q:
// network radix k' and router count Nr. ok is false if q is not a valid MMS
// order (prime power of the form 4w + delta).
func Params(q int) (kp, nr, delta int, ok bool) {
	if _, _, isPP := gf.PrimePower(q); !isPP {
		return 0, 0, 0, false
	}
	switch q % 4 {
	case 1:
		delta = 1
	case 3:
		delta = -1
	case 0:
		delta = 0
	default: // q % 4 == 2 means q = 2, not usable
		return 0, 0, 0, false
	}
	return (3*q - delta) / 2, 2 * q * q, delta, true
}

// BalancedConcentration returns the paper's full-global-bandwidth
// concentration p = ceil(k'/2) for the given network radix (Section II-B2).
func BalancedConcentration(kp int) int { return (kp + 1) / 2 }

// New constructs a balanced Slim Fly for prime power q, with
// p = ceil(k'/2) endpoints per router.
func New(q int) (*SlimFly, error) {
	kp, _, _, ok := Params(q)
	if !ok {
		return nil, fmt.Errorf("slimfly: q=%d is not a prime power of the form 4w+delta, delta in {-1,0,1}", q)
	}
	return NewWithConcentration(q, BalancedConcentration(kp))
}

// NewWithConcentration constructs a Slim Fly with an explicit concentration
// p (used by the oversubscription study in Section V-E, where p ranges from
// 16 to 21 on the q = 19 network).
func NewWithConcentration(q, p int) (*SlimFly, error) {
	kp, nr, delta, ok := Params(q)
	if !ok {
		return nil, fmt.Errorf("slimfly: q=%d is not a prime power of the form 4w+delta, delta in {-1,0,1}", q)
	}
	if p <= 0 {
		return nil, fmt.Errorf("slimfly: concentration p=%d must be positive", p)
	}
	f, err := gf.New(q)
	if err != nil {
		return nil, fmt.Errorf("slimfly: %w", err)
	}
	w := (q - delta) / 4

	x, xp, err := generatorSets(f, delta, w)
	if err != nil {
		return nil, err
	}

	sf := &SlimFly{
		Q: q, Delta: delta, W: w, F: f, X: x, Xp: xp,
		inX: make([]bool, q), inXp: make([]bool, q),
	}
	for _, v := range x {
		sf.inX[v] = true
	}
	for _, v := range xp {
		sf.inXp[v] = true
	}
	sf.TopoName = "SF"
	sf.P = p
	sf.Kp = kp
	sf.Diam = 2
	sf.N = p * nr
	sf.G = graph.MustFromEdges(nr, edges(f, x, xp))
	if err := sf.Base.Validate(); err != nil {
		return nil, err
	}
	sf.lab = make([]label, nr)
	for id := range sf.lab {
		rem := id % (q * q)
		sf.lab[id] = label{a: uint16(rem / q), b: uint16(rem % q)}
	}
	// The line-neighbours of the routers on column 0 and slope 0, read off
	// their sorted adjacency (see label): ports 0 to |X|-1 of (0,0,b), and
	// ports q on of (1,0,b).
	if sf.linePort[0], err = linePorts(f, sf.inX, func(b int) []int32 { return sf.G.Neighbors(b)[:len(x)] }); err != nil {
		return nil, err
	}
	if sf.linePort[1], err = linePorts(f, sf.inXp, func(b int) []int32 { return sf.G.Neighbors(q*q + b)[q:] }); err != nil {
		return nil, err
	}
	return sf, nil
}

// linePorts builds one subgraph's linePort table. line(b) lists, ascending,
// the routers of offset b's line that neighbour it (offsets {b + d : d in
// the generator set}; a router's offset is its id mod q), so a
// neighbour's port within the block is its rank there, and the lowest
// common line-neighbour of a non-adjacent pair is the first of b's
// neighbours that is also adjacent to b'. One must exist for the graph to
// have diameter 2 (two routers of one line share no neighbour outside it).
func linePorts(f *gf.Field, inGen []bool, line func(b int) []int32) ([]int32, error) {
	q := f.Q
	ports := make([]int32, q*q)
	for b := 0; b < q; b++ {
		nbr := line(b)
		row := ports[b*q : (b+1)*q]
		for bp := range row {
			row[bp] = -1
			if bp == b {
				continue
			}
			adjacent := inGen[f.Sub(bp, b)]
			for rank, id := range nbr {
				v := int(id) % q
				if (adjacent && v == bp) || (!adjacent && inGen[f.Sub(bp, v)]) {
					row[bp] = int32(rank)
					break
				}
			}
			if row[bp] < 0 {
				return nil, fmt.Errorf("slimfly: offsets %d and %d of one line share no neighbour (q=%d): generator set breaks diameter 2", b, bp, q)
			}
		}
	}
	return ports, nil
}

// MustNew is New but panics on error.
func MustNew(q int) *SlimFly {
	sf, err := New(q)
	if err != nil {
		panic(err)
	}
	return sf
}

// generatorSets builds X and X' for the three residue classes of q mod 4.
//
// delta = +1 (q = 4w+1): the multiplicative group has even order with
// -1 a quadratic residue, so the even powers of xi (the nonzero squares)
// form a symmetric set:
//
//	X  = {1, xi^2, xi^4, ..., xi^(q-3)}   (paper, Section II-B1b)
//	X' = {xi, xi^3,  ..., xi^(q-2)}
//
// delta = -1 (q = 4w-1): -1 is a non-residue, so plain even powers are not
// symmetric; Hafner's realisation uses the union of plus/minus low even
// (resp. odd) powers:
//
//	X  = {+-xi^(2i) : 0 <= i < w}
//	X' = {+-xi^(2i+1) : 0 <= i < w}
//
// delta = 0 (q = 4w, char 2): -1 = 1, so every set is symmetric. Two
// consecutive windows of powers, overlapping in one element, satisfy the
// diameter-2 conditions (X u X' covers GF(q)*, and each set plus its sumset
// covers GF(q)*; verified for every q in the library by the test suite):
//
//	X  = {xi^i : 0 <= i < 2w}
//	X' = {xi^i : 2w-1 <= i < 4w-1}
func generatorSets(f *gf.Field, delta, w int) (x, xp []int, err error) {
	xi := f.PrimitiveElement()
	switch delta {
	case 1:
		for i := 0; i < 2*w; i++ { // (q-1)/2 = 2w even powers
			x = append(x, f.Pow(xi, 2*i))
			xp = append(xp, f.Pow(xi, 2*i+1))
		}
	case -1:
		for i := 0; i < w; i++ {
			e := f.Pow(xi, 2*i)
			o := f.Pow(xi, 2*i+1)
			x = append(x, e, f.Neg(e))
			xp = append(xp, o, f.Neg(o))
		}
	case 0:
		for i := 0; i < 2*w; i++ {
			x = append(x, f.Pow(xi, i))
			xp = append(xp, f.Pow(xi, 2*w-1+i))
		}
	default:
		return nil, nil, fmt.Errorf("slimfly: invalid delta %d", delta)
	}
	x = dedupeSorted(x)
	xp = dedupeSorted(xp)
	want := (f.Q - delta) / 2
	if len(x) != want || len(xp) != want {
		return nil, nil, fmt.Errorf("slimfly: generator sets have sizes |X|=%d |X'|=%d, want %d (q=%d delta=%d)",
			len(x), len(xp), want, f.Q, delta)
	}
	if !symmetric(f, x) || !symmetric(f, xp) {
		return nil, nil, fmt.Errorf("slimfly: generator sets not symmetric for q=%d", f.Q)
	}
	return x, xp, nil
}

func dedupeSorted(s []int) []int {
	sort.Ints(s)
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// symmetric reports whether set = -set, the condition for Eqs. (1)-(2) to
// define undirected edges.
func symmetric(f *gf.Field, set []int) bool {
	in := make(map[int]bool, len(set))
	for _, v := range set {
		in[v] = true
	}
	for _, v := range set {
		if !in[f.Neg(v)] {
			return false
		}
	}
	return true
}

// RouterLabel maps a dense vertex id to its router label (s, a, b) -- s in
// {0,1}, a,b in GF(q), with id = s*q*q + a*q + b. Subgraph 0 routers are
// (0, x, y); subgraph 1 routers are (1, m, c).
func (sf *SlimFly) RouterLabel(id int) (s, a, b int) {
	if id >= sf.Q*sf.Q {
		s = 1
	}
	l := sf.lab[id]
	return s, int(l.a), int(l.b)
}

// edges lists the MMS graph's edges from Eqs. (1)-(3), each once.
func edges(f *gf.Field, x, xp []int) []graph.Edge {
	q := f.Q
	es := make([]graph.Edge, 0, q*q*(len(x)+len(xp))/2+q*q*q)
	add := func(u, v int) { es = append(es, graph.Edge{U: int32(u), V: int32(v)}) }
	id0 := func(xx, yy int) int { return xx*q + yy }
	id1 := func(mm, cc int) int { return q*q + mm*q + cc }

	// Eq. (1): (0,x,y) ~ (0,x,y') iff y - y' in X.
	// Eq. (2): (1,m,c) ~ (1,m,c') iff c - c' in X'.
	for a := 0; a < q; a++ {
		for b := 0; b < q; b++ {
			for _, d := range x {
				b2 := f.Add(b, d)
				if b < b2 { // add each undirected edge once
					add(id0(a, b), id0(a, b2))
				}
			}
			for _, d := range xp {
				b2 := f.Add(b, d)
				if b < b2 {
					add(id1(a, b), id1(a, b2))
				}
			}
		}
	}
	// Eq. (3): (0,x,y) ~ (1,m,c) iff y = m*x + c.
	for m := 0; m < q; m++ {
		for xx := 0; xx < q; xx++ {
			mx := f.Mul(m, xx)
			for c := 0; c < q; c++ {
				add(id0(xx, f.Add(mx, c)), id1(m, c))
			}
		}
	}
	return es
}

// ValidOrders returns the prime powers q in [lo, hi] usable for SF MMS,
// i.e. the library of constructible Slim Fly configurations (Section VII-A).
func ValidOrders(lo, hi int) []int {
	var qs []int
	for q := lo; q <= hi; q++ {
		if _, _, _, ok := Params(q); ok {
			qs = append(qs, q)
		}
	}
	return qs
}

// WorstCase implements the scenario WorstCaser capability: the diameter-2
// adversarial permutation of Section V-C, maximising load on single
// inter-router links. rt must answer for Graph(); seed determinises the
// pairing of leftover endpoints.
func (s *SlimFly) WorstCase(rt route.Router, seed uint64) traffic.Pattern {
	return traffic.WorstCaseSF(s, rt, seed)
}

// RouterDistance implements route.Oracle with the MMS closed form: the
// graph has diameter 2, so the answer is 0 (same router), 1 (adjacent by
// Eqs. 1-3), else 2. Adjacency is decided from the labels alone --
// generator-set membership of the intra-subgraph difference, or the line
// incidence y = m*x + c across subgraphs.
//
//sf:hotpath
func (s *SlimFly) RouterDistance(u, d int) int {
	if u == d {
		return 0
	}
	su, au, bu := s.RouterLabel(u)
	sd, ad, bd := s.RouterLabel(d)
	if su == sd {
		if au != ad {
			return 2 // different rows/columns of the same subgraph never connect directly
		}
		diff := s.F.Sub(bu, bd)
		if su == 0 {
			if s.inX[diff] {
				return 1 // Eq. 1
			}
		} else if s.inXp[diff] {
			return 1 // Eq. 2
		}
		return 2
	}
	// Cross-subgraph: orient to (0,x,y) vs (1,m,c) and test Eq. 3.
	x, y, m, c := au, bu, ad, bd
	if su == 1 {
		x, y, m, c = ad, bd, au, bu
	}
	if y == s.F.Add(s.F.Mul(m, x), c) {
		return 1
	}
	return 2
}

// RouterDiameter implements route.Oracle: MMS graphs have diameter 2.
func (s *SlimFly) RouterDiameter() int { return 2 }

// RouterNextPort implements route.PortOracle: u's output port toward d --
// the index, in u's sorted adjacency, of d itself when the two are
// adjacent and otherwise of their lowest-id common neighbour, which is the
// BFS tie-break -- in O(1) from the labels (-1 if u == d).
//
// Sorted adjacency puts a router's subgraph-0 neighbours before its
// subgraph-1 ones. (0,x,y) sees its |X| column neighbours by offset, then
// one router (1,m,y-m*x) per slope m at port |X|+m; (1,m,c) sees one
// router (0,x,m*x+c) per column x at port x, then its |X'| line
// neighbours by offset from port q. The middle router of a 2-hop path
// follows from Eqs. 1-3:
//
//   - same column or slope: no common neighbour lies outside the line
//     (it would put both offsets on one point), so linePort answers;
//   - two columns of subgraph 0: the one line through both points,
//     m = (y-y')/(x-x'); two slopes of subgraph 1: the one point on both
//     lines, x = (c'-c)/(m-m');
//   - across subgraphs, with t = y-(m*x+c): t = 0 is the direct link;
//     t in X makes (0,x,m*x+c) a common neighbour, the lowest one because
//     subgraph-0 ids sort first; otherwise t is in X' and (1,m,y-m*x) is
//     the only one.
//
//sf:hotpath
func (s *SlimFly) RouterNextPort(u, d int) int32 {
	if u == d {
		return -1
	}
	q, f := s.Q, s.F
	lu, ld := s.lab[u], s.lab[d]
	au, bu, ad, bd := int(lu.a), int(lu.b), int(ld.a), int(ld.b)
	switch su, sd := u >= q*q, d >= q*q; {
	case !su && !sd: // (0,x,y) -> (0,x',y')
		if au == ad {
			return s.linePort[0][bu*q+bd]
		}
		return int32(len(s.X) + f.Div(f.Sub(bu, bd), f.Sub(au, ad)))
	case su && sd: // (1,m,c) -> (1,m',c')
		if au == ad {
			return int32(q) + s.linePort[1][bu*q+bd]
		}
		return int32(f.Div(f.Sub(bd, bu), f.Sub(au, ad)))
	case !su: // (0,x,y) -> (1,m,c)
		on := f.Add(f.Mul(ad, au), bd) // m*x + c
		if s.inX[f.Sub(bu, on)] {
			return s.linePort[0][bu*q+on]
		}
		// The direct link (t = 0) and the detour via (1,m,y-m*x) both
		// leave through slope m's port.
		return int32(len(s.X) + ad)
	default: // (1,m,c) -> (0,x,y)
		mx := f.Mul(au, ad)
		on := f.Add(mx, bu) // m*x + c
		if on == bd || s.inX[f.Sub(bd, on)] {
			return int32(ad) // column x's port: d itself, or (0,x,m*x+c)
		}
		return int32(q) + s.linePort[1][bu*q+f.Sub(bd, mx)]
	}
}
