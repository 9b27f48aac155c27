// Package decidepure enforces the sharded engine's read-only decide
// phase (internal/sim/parallel.go): while shards run concurrently against
// the frozen pre-allocation state, a decide-phase function may write only
//
//   - its shard-scratch state (*shardState),
//   - the probed packet's documented idempotent fields (Packet.Interm,
//     Packet.Phase -- the Valiant phase flip, idempotent by contract),
//   - the router's own round-robin pointers (router.rr -- read by no one
//     but the owning router), and
//   - function-local values.
//
// Everything else -- other router fields, any *Sim field, package-level
// state, writes through foreign pointers that may alias the shared
// engine -- is a data race waiting for a shard boundary to move, and is
// reported at the assignment that introduces it.
//
// The decide set is seeded by //sf:decide markers (decideShard,
// decideRouter) and grows through same-package static calls, so a helper
// that quietly mutates shared state is caught even though the marker
// lives on its caller. Aliases are tracked: a local slice or pointer
// initialised from shard scratch stays writable, one initialised from
// shared state is flagged when written through. //sf:allow(write: why)
// acknowledges a reviewed exception.
package decidepure

import (
	"go/ast"
	"go/token"
	"go/types"

	"slimfly/internal/analysis"
)

// Analyzer is the decidepure pass.
var Analyzer = &analysis.Analyzer{
	Name: "decidepure",
	Doc:  "decide-phase functions may write only shard scratch, router.rr and Packet.{Interm,Phase}",
	Run:  run,
}

type region int

const (
	regionLocal  region = iota // function-local value: writable
	regionShard                // *shardState: writable
	regionRouter               // *router: only field rr writable
	regionPacket               // *Packet: only Interm/Phase writable
	regionShared               // shared engine state: never writable
)

// packetFields are the probed packet's documented idempotent fields.
var packetFields = map[string]bool{"Interm": true, "Phase": true}

func run(pass *analysis.Pass) error {
	decls := pass.FuncsByObject()

	cold := map[*types.Func]bool{}
	var worklist []*types.Func
	for fn, decl := range decls {
		if analysis.HasMarker(decl.Doc, "coldpath") {
			cold[fn] = true
		}
		if analysis.HasMarker(decl.Doc, "decide") {
			worklist = append(worklist, fn)
		}
	}

	seen := map[*types.Func]bool{}
	for len(worklist) > 0 {
		fn := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		if seen[fn] || cold[fn] {
			continue
		}
		seen[fn] = true
		decl := decls[fn]
		if decl == nil || decl.Body == nil {
			continue
		}
		worklist = append(worklist, checkFunc(pass, fn, decl, decls)...)
	}
	return nil
}

// checkFunc analyses one decide-set function and returns its
// same-package static callees.
func checkFunc(pass *analysis.Pass, fn *types.Func, decl *ast.FuncDecl, decls map[*types.Func]*ast.FuncDecl) []*types.Func {
	info := pass.TypesInfo
	c := &checker{pass: pass, info: info, fn: fn, taint: map[*types.Var]region{}}

	// Parameters and the receiver get their region from their type; any
	// foreign pointer parameter is assumed to alias shared state.
	seed := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					c.taint[v] = regionOfType(v.Type())
				}
			}
		}
	}
	seed(decl.Recv)
	seed(decl.Type.Params)

	// Alias pass: propagate regions into reference-typed locals until the
	// map stabilises (two rounds bound the loops that matter here; the
	// region lattice is tiny and joins monotonically).
	for i := 0; i < 2; i++ {
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			a, ok := n.(*ast.AssignStmt)
			if !ok || (a.Tok != token.DEFINE && a.Tok != token.ASSIGN) {
				return true
			}
			for i, lhs := range a.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || i >= len(a.Rhs) {
					continue
				}
				v := localVar(info, id)
				if v == nil || !referenceShaped(v.Type()) {
					continue
				}
				r := c.regionOf(a.Rhs[i])
				if cur, ok := c.taint[v]; !ok || r > cur {
					c.taint[v] = r
				}
			}
			return true
		})
	}

	// Write pass.
	var callees []*types.Func
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true // introduces locals; aliasing handled above
			}
			for _, lhs := range n.Lhs {
				c.checkWrite(lhs)
			}
		case *ast.IncDecStmt:
			c.checkWrite(n.X)
		case *ast.CallExpr:
			if callee := analysis.StaticCallee(info, n); callee != nil && callee.Pkg() == pass.Pkg && decls[callee] != nil {
				callees = append(callees, callee)
			}
		}
		return true
	})
	return callees
}

type checker struct {
	pass  *analysis.Pass
	info  *types.Info
	fn    *types.Func
	taint map[*types.Var]region
}

// checkWrite validates one assignment target against the decide-phase
// write rules.
func (c *checker) checkWrite(lhs ast.Expr) {
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		v := localVar(c.info, id)
		if v != nil {
			return // rebinding a local (aliasing handled by the taint pass)
		}
		if c.pass.Allowed("write", id.Pos()) {
			return
		}
		c.pass.Reportf(id.Pos(),
			"decide-phase code must not touch package state; move the write to the commit phase",
			"decide-phase function %s writes package-level variable %s", c.fn.Name(), id.Name)
		return
	}

	root, field := c.rootOf(lhs)
	switch root {
	case regionLocal, regionShard:
		return
	case regionRouter:
		if field == "rr" {
			return // the router's own round-robin pointers: documented exception
		}
		c.report(lhs, "decide-phase function %s writes router field %q; only rr (round-robin pointers) may be written during decide",
			field)
	case regionPacket:
		if packetFields[field] {
			return
		}
		c.report(lhs, "decide-phase function %s writes Packet field %q; only the idempotent Interm/Phase fields may be written during decide",
			field)
	default:
		c.report(lhs, "decide-phase function %s writes shared engine state (field %q); record a delta in the shard scratch and apply it in the commit phase",
			field)
	}
}

func (c *checker) report(at ast.Expr, format, field string) {
	if c.pass.Allowed("write", at.Pos()) {
		return
	}
	c.pass.Reportf(at.Pos(),
		"the decide phase runs concurrently against frozen state; see the decidepure contract in internal/sim/parallel.go",
		format, c.fn.Name(), field)
}

// rootOf peels selectors, indexing and dereferences off an lvalue and
// returns the region of its base plus the field selected directly on the
// base (the field that decides router/packet exceptions).
func (c *checker) rootOf(e ast.Expr) (region, string) {
	field := ""
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			field = x.Sel.Name
			e = x.X
		case *ast.Ident:
			if v := localVar(c.info, x); v != nil {
				if r, ok := c.taint[v]; ok {
					return r, field
				}
				if referenceShaped(v.Type()) {
					return regionShared, field // untracked alias: assume shared
				}
				return regionLocal, field
			}
			return regionShared, field // package-level state
		case *ast.CallExpr:
			return c.regionOfCall(x), field
		default:
			return regionShared, field
		}
	}
}

// regionOf classifies the value an expression evaluates to, for alias
// tracking of reference-typed locals.
func (c *checker) regionOf(e ast.Expr) region {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			r, _ := c.rootOf(x.X)
			return r
		}
	case *ast.CompositeLit, *ast.BasicLit:
		return regionLocal
	case *ast.CallExpr:
		return c.regionOfCall(x)
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.SliceExpr, *ast.StarExpr:
		r, _ := c.rootOf(e)
		return r
	}
	return regionShared
}

// regionOfCall classifies a call result: the only sanctioned pointer a
// call hands the decide phase is the probed *Packet (Sim.headPkt); every
// other returned reference is assumed to alias shared state.
func (c *checker) regionOfCall(call *ast.CallExpr) region {
	t := c.info.Types[call].Type
	if t == nil {
		return regionShared
	}
	if regionOfType(t) == regionPacket {
		return regionPacket
	}
	if !referenceShaped(t) {
		return regionLocal
	}
	return regionShared
}

// regionOfType maps the engine's pointer types onto write regions by
// their declared names -- the analyzer encodes the sim package's specific
// contract, not a generic aliasing theory.
func regionOfType(t types.Type) region {
	name := namedPointee(t)
	switch name {
	case "shardState":
		return regionShard
	case "router":
		return regionRouter
	case "Packet":
		return regionPacket
	case "Sim":
		return regionShared
	}
	if referenceShaped(t) {
		return regionShared // foreign references may alias the engine
	}
	return regionLocal
}

// namedPointee returns the type name behind one level of pointer (or the
// named type itself), "" otherwise.
func namedPointee(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// referenceShaped reports whether writes through a value of type t can be
// observed elsewhere: pointers, slices, maps and channels.
func referenceShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan:
		return true
	}
	return false
}

// localVar resolves an identifier to the *types.Var it names when that
// variable is function-scoped (param, receiver or local), nil for
// package-level and field selections.
func localVar(info *types.Info, id *ast.Ident) *types.Var {
	var obj types.Object
	if o, ok := info.Defs[id]; ok {
		obj = o
	} else if o, ok := info.Uses[id]; ok {
		obj = o
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	if v.Parent() != nil && v.Parent() == v.Pkg().Scope() {
		return nil // package-level variable
	}
	return v
}
