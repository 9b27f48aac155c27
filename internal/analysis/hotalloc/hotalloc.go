// Package hotalloc enforces the engine's zero-allocation hot-path
// contract at the line that would break it. Functions marked //sf:hotpath
// (the engine step, the allocator and its hop, the collector
// observer hooks, the RNG draws) and everything they statically call must
// contain no heap-allocating construct; TestStepZeroAlloc then only has
// to confirm what the tree already proves.
//
// Flagged constructs, each with its own //sf:allow check name:
//
//	append          growing append               //sf:allow(append: why)
//	make/new, map and slice literals, &T{},
//	string conversions, map writes, go stmts     //sf:allow(alloc: why)
//	escaping closures (non-defer func literals)  //sf:allow(closure: why)
//	string concatenation                         //sf:allow(concat: why)
//	interface boxing of non-pointer values       //sf:allow(box: why)
//	calls to unannotated foreign functions       //sf:allow(call: why)
//
// Same-package callees join the hot set automatically; //sf:coldpath cuts
// propagation for failure paths (panics) and one-time setup. Calls into
// other module packages must target functions that are themselves marked
// //sf:hotpath -- the marker is part of the API contract, carried across
// packages as an analysis fact -- and a small allowlist admits the
// non-allocating standard-library leaves the engine leans on (math/bits,
// sync, sync/atomic, slices.Sort). Interface method calls cannot be
// followed statically and are admitted: the runtime zero-alloc guard owns
// dynamic dispatch.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"slimfly/internal/analysis"
)

// Analyzer is the hotalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "//sf:hotpath functions and their static callees must not allocate",
	Run:  run,
}

// HotpathFact marks a function verified allocation-free, exported so
// dependent packages may call it from their own hot paths.
const HotpathFact = "hotpath"

// allowedPkgs are standard-library packages whose functions the hot path
// may call freely: pure bit twiddling and the non-allocating
// synchronisation primitives (the obs counters are atomics).
var allowedPkgs = map[string]bool{
	"math/bits":   true,
	"sync":        true,
	"sync/atomic": true,
	"math":        true,
}

// allowedFuncs admits individual foreign functions that are known
// non-allocating but live in packages with allocating siblings.
var allowedFuncs = map[string]bool{
	"slices.Sort": true, // in-place pdqsort, no heap use
}

func run(pass *analysis.Pass) error {
	decls := pass.FuncsByObject()

	// Seed the hot set from //sf:hotpath markers; //sf:coldpath cuts
	// propagation into failure and one-time setup paths.
	cold := map[*types.Func]bool{}
	var worklist []*types.Func
	for fn, decl := range decls {
		if analysis.HasMarker(decl.Doc, "coldpath") {
			cold[fn] = true
		}
		if analysis.HasMarker(decl.Doc, "hotpath") {
			worklist = append(worklist, fn)
		}
	}

	hot := map[*types.Func]bool{}
	for len(worklist) > 0 {
		fn := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		if hot[fn] || cold[fn] {
			continue
		}
		hot[fn] = true
		pass.Facts.Set(fn, HotpathFact)
		decl := decls[fn]
		if decl == nil || decl.Body == nil {
			continue
		}
		worklist = append(worklist, checkBody(pass, fn, decl, decls, cold)...)
	}
	return nil
}

// checkBody walks one hot function's body, reporting allocating
// constructs and returning the same-package callees to propagate into.
func checkBody(pass *analysis.Pass, fn *types.Func, decl *ast.FuncDecl, decls map[*types.Func]*ast.FuncDecl, cold map[*types.Func]bool) []*types.Func {
	info := pass.TypesInfo
	name := fn.Name()

	// Func literals invoked by defer are open-coded and do not escape;
	// everything else is treated as an escaping closure.
	deferred := map[*ast.FuncLit]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			if fl, ok := d.Call.Fun.(*ast.FuncLit); ok {
				deferred[fl] = true
			}
		}
		return true
	})

	var callees []*types.Func
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			callees = append(callees, checkCall(pass, name, n, decls, cold)...)

		case *ast.CompositeLit:
			switch info.Types[n].Type.Underlying().(type) {
			case *types.Map:
				report(pass, "alloc", n.Pos(), name, "map literal allocates",
					"hoist the map to construction time or //sf:allow(alloc: why) if provably cold")
			case *types.Slice:
				report(pass, "alloc", n.Pos(), name, "slice literal allocates",
					"reuse a preallocated scratch slice or //sf:allow(alloc: why)")
			}

		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(pass, "alloc", n.Pos(), name, "&composite literal escapes to the heap",
						"fill a preallocated value instead, or //sf:allow(alloc: why)")
				}
			}

		case *ast.BinaryExpr:
			// Constant-folded concatenations (tv.Value != nil) cost nothing
			// at run time and are not flagged.
			if n.Op == token.ADD && isString(info, n.X) && info.Types[n].Value == nil {
				report(pass, "concat", n.Pos(), name, "string concatenation allocates",
					"format at construction/report time, not per cycle; //sf:allow(concat: why) if cold")
			}

		case *ast.AssignStmt:
			checkAssign(pass, name, n, info)

		case *ast.GoStmt:
			report(pass, "alloc", n.Pos(), name, "go statement allocates a goroutine",
				"start workers at construction time (//sf:coldpath) instead of per cycle")

		case *ast.FuncLit:
			if !deferred[n] {
				report(pass, "closure", n.Pos(), name, "closure may escape to the heap",
					"hoist to a named method or //sf:allow(closure: why) if it provably stays on the stack")
			}
		}
		return true
	})
	return callees
}

// checkCall classifies one call in a hot function: builtins that
// allocate, conversions that copy, foreign callees without the hot-path
// marker, and interface boxing at the call boundary. It returns
// same-package static callees for propagation.
func checkCall(pass *analysis.Pass, name string, call *ast.CallExpr, decls map[*types.Func]*ast.FuncDecl, cold map[*types.Func]bool) []*types.Func {
	info := pass.TypesInfo

	// Conversions: T(x).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		checkConversion(pass, name, call, info)
		return nil
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, ok := info.Uses[id].(*types.Builtin); ok {
			switch id.Name {
			case "append":
				report(pass, "append", call.Pos(), name, "append may grow its backing array",
					"size the buffer at construction and document the bound: //sf:allow(append: why it cannot grow in steady state)")
			case "make":
				report(pass, "alloc", call.Pos(), name, "make allocates",
					"allocate at construction time and reuse; //sf:allow(alloc: why) if provably cold")
			case "new":
				report(pass, "alloc", call.Pos(), name, "new allocates",
					"allocate at construction time and reuse; //sf:allow(alloc: why) if provably cold")
			}
			return nil
		}
	}

	fn := analysis.StaticCallee(info, call)
	if fn == nil {
		// Interface dispatch or a call through a function value: not
		// statically followable. Boxing at the boundary is still checked.
		checkCallBoxing(pass, name, call, info)
		return nil
	}
	checkCallBoxing(pass, name, call, info)

	if fn.Pkg() == pass.Pkg {
		if decls[fn] != nil && !cold[fn] {
			return []*types.Func{fn}
		}
		return nil
	}

	// Foreign callee: the marker must travel with the API.
	path := "unknown"
	if fn.Pkg() != nil {
		path = fn.Pkg().Path()
	}
	if allowedPkgs[path] || allowedFuncs[path+"."+fn.Name()] {
		return nil
	}
	if pass.Facts.Has(fn, HotpathFact) {
		return nil
	}
	report(pass, "call", call.Pos(), name,
		"hot path calls "+path+"."+fn.Name()+" which is not marked //sf:hotpath",
		"mark the callee //sf:hotpath (and keep it allocation-free) or move the call off the hot path; //sf:allow(call: why) if it cannot allocate")
	return nil
}

// checkConversion flags converting conversions that copy memory: to
// string from byte/rune slices, to slices from strings, and boxing
// conversions to interface types.
func checkConversion(pass *analysis.Pass, name string, call *ast.CallExpr, info *types.Info) {
	if len(call.Args) != 1 {
		return
	}
	dst := info.Types[call.Fun].Type
	src := info.Types[call.Args[0]].Type
	if src == nil || dst == nil {
		return
	}
	switch dst.Underlying().(type) {
	case *types.Interface:
		if !types.IsInterface(src.Underlying()) && !analysis.PointerShaped(src) {
			report(pass, "box", call.Pos(), name, "conversion boxes a non-pointer value into an interface",
				"pass a pointer, or keep the value concrete on the hot path")
		}
	case *types.Slice:
		if isString(info, call.Args[0]) {
			report(pass, "alloc", call.Pos(), name, "string-to-slice conversion copies",
				"keep the bytes in their original form on the hot path")
		}
	}
	if b, ok := dst.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
		if !isString(info, call.Args[0]) {
			report(pass, "alloc", call.Pos(), name, "conversion to string allocates",
				"format at report time, not per cycle")
		}
	}
}

// checkCallBoxing flags arguments whose interface-typed parameters force
// a non-pointer concrete value onto the heap.
func checkCallBoxing(pass *analysis.Pass, name string, call *ast.CallExpr, info *types.Info) {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type()
			} else if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if pt == nil || !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := info.Types[arg].Type
		if at == nil || types.IsInterface(at.Underlying()) || analysis.PointerShaped(at) {
			continue
		}
		if isUntypedNil(info, arg) {
			continue
		}
		report(pass, "box", arg.Pos(), name, "argument boxes a non-pointer value into an interface parameter",
			"pass a pointer or use a concrete-typed API on the hot path; //sf:allow(box: why) if cold")
	}
}

// checkAssign flags string +=, map writes and assignments that box
// concrete values into interface-typed lvalues.
func checkAssign(pass *analysis.Pass, name string, n *ast.AssignStmt, info *types.Info) {
	for _, lhs := range n.Lhs {
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if t := info.Types[ix.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					report(pass, "alloc", lhs.Pos(), name, "map assignment may allocate (rehash/grow)",
						"replace the map with a dense slice keyed by index, or //sf:allow(alloc: why) if the key set is fixed after warmup")
				}
			}
		}
	}
	if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(info, n.Lhs[0]) {
		report(pass, "concat", n.Pos(), name, "string concatenation allocates",
			"format at report time, not per cycle")
		return
	}
	if n.Tok != token.ASSIGN {
		return
	}
	for i, lhs := range n.Lhs {
		if i >= len(n.Rhs) {
			break
		}
		lt := info.Types[lhs].Type
		rt := info.Types[n.Rhs[i]].Type
		if lt == nil || rt == nil || !types.IsInterface(lt.Underlying()) {
			continue
		}
		if types.IsInterface(rt.Underlying()) || analysis.PointerShaped(rt) || isUntypedNil(info, n.Rhs[i]) {
			continue
		}
		report(pass, "box", n.Rhs[i].Pos(), name, "assignment boxes a non-pointer value into an interface",
			"store a pointer or keep the variable concrete on the hot path")
	}
}

func isString(info *types.Info, e ast.Expr) bool {
	t := info.Types[e].Type
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isUntypedNil(info *types.Info, e ast.Expr) bool {
	t := info.Types[e].Type
	if t == nil {
		return true
	}
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// report emits one suppressable diagnostic attributed to the enclosing
// hot function.
func report(pass *analysis.Pass, check string, pos token.Pos, fn, msg, hint string) {
	if pass.Allowed(check, pos) {
		return
	}
	pass.Reportf(pos, hint, "%s (in //sf:hotpath function %s)", msg, fn)
}
