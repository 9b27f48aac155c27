// Package analysis is a self-contained static-analysis framework for
// the repo's custom vet passes (cmd/sfvet). It mirrors the shape of
// golang.org/x/tools/go/analysis -- Analyzer, Pass, Diagnostic -- but is
// built entirely on the standard library (go/ast, go/types, go list), so
// the checker builds and runs with no module downloads: the toolchain in
// the box is the whole dependency set.
//
// The framework loads the module's packages in dependency order (see
// Load), type-checks them against a shared token.FileSet, and runs each
// analyzer over each package with a process-wide fact store, so a pass
// analysing package P can see facts exported while analysing P's
// dependencies (e.g. hotalloc's "this function is hot-path-safe" marks).
//
// Source annotations understood by the stock analyzers:
//
//	//sf:hotpath            function must be allocation-free (hotalloc seed)
//	//sf:coldpath           cut hot-path propagation (panic/setup paths)
//	//sf:allow(check: why)  suppress one diagnostic on this or the next line
//	//sf:order-insensitive(why)  assert a map range is commutative (detrand)
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Analyzer is one named static check.
type Analyzer struct {
	Name string // short lower-case identifier, e.g. "hotalloc"
	Doc  string // one-paragraph description: the invariant enforced

	// Run performs the check on one package. Diagnostics go through
	// pass.Report; the return error is for analysis failures (the pass
	// could not run), not findings.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Facts is the run-wide fact store shared by every pass. Packages are
	// analysed in dependency order, so facts exported by a dependency's
	// pass are visible here.
	Facts *FactStore

	// Report delivers one finding.
	Report func(Diagnostic)

	comments *commentIndex // lazily built annotation index
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
	// Hint is the fix recipe shown alongside the message: what to change,
	// or which //sf: annotation acknowledges the pattern as intended.
	Hint string
}

// Reportf formats and reports a diagnostic with a fix hint.
func (p *Pass) Reportf(pos token.Pos, hint, format string, args ...any) {
	p.Report(Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Hint:     hint,
	})
}

// markerRE matches the repo's function-level invariant markers inside
// comment groups: //sf:hotpath, //sf:coldpath.
var markerRE = regexp.MustCompile(`^//sf:(hotpath|coldpath)\s*$`)

// HasMarker reports whether the comment group (typically a FuncDecl.Doc)
// contains the given //sf: marker on a line of its own.
func HasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		m := markerRE.FindStringSubmatch(strings.TrimSpace(c.Text))
		if m != nil && m[1] == marker {
			return true
		}
	}
	return false
}

// allowRE captures //sf:allow(check) and //sf:allow(check: justification).
var allowRE = regexp.MustCompile(`//sf:allow\(([a-z]+)(?::[^)]*)?\)`)

// orderRE captures //sf:order-insensitive and its optional justification.
var orderRE = regexp.MustCompile(`//sf:order-insensitive(?:\([^)]*\))?`)

// commentIndex maps (file, line) to the suppression annotations written
// there, so analyzers can honour //sf:allow on the offending line or the
// line directly above it.
type commentIndex struct {
	allow map[string]map[int]map[string]bool // filename -> line -> checks
	order map[string]map[int]bool            // filename -> line -> order-insensitive
}

func (p *Pass) index() *commentIndex {
	if p.comments != nil {
		return p.comments
	}
	idx := &commentIndex{
		allow: map[string]map[int]map[string]bool{},
		order: map[string]map[int]bool{},
	}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := p.Fset.Position(c.Pos())
				for _, m := range allowRE.FindAllStringSubmatch(c.Text, -1) {
					byLine := idx.allow[pos.Filename]
					if byLine == nil {
						byLine = map[int]map[string]bool{}
						idx.allow[pos.Filename] = byLine
					}
					if byLine[pos.Line] == nil {
						byLine[pos.Line] = map[string]bool{}
					}
					byLine[pos.Line][m[1]] = true
				}
				if orderRE.MatchString(c.Text) {
					if idx.order[pos.Filename] == nil {
						idx.order[pos.Filename] = map[int]bool{}
					}
					idx.order[pos.Filename][pos.Line] = true
				}
			}
		}
	}
	p.comments = idx
	return idx
}

// Allowed reports whether an //sf:allow(check) annotation covers pos: on
// the same line or the line immediately above (for full-line comments).
func (p *Pass) Allowed(check string, pos token.Pos) bool {
	pp := p.Fset.Position(pos)
	byLine := p.index().allow[pp.Filename]
	if byLine == nil {
		return false
	}
	return byLine[pp.Line][check] || byLine[pp.Line-1][check]
}

// OrderInsensitive reports whether an //sf:order-insensitive annotation
// covers pos (same line or the line above).
func (p *Pass) OrderInsensitive(pos token.Pos) bool {
	pp := p.Fset.Position(pos)
	byLine := p.index().order[pp.Filename]
	if byLine == nil {
		return false
	}
	return byLine[pp.Line] || byLine[pp.Line-1]
}

// FuncsByObject indexes the package's function declarations by their
// types object, the lookup every call-graph walk starts from.
func (p *Pass) FuncsByObject() map[*types.Func]*ast.FuncDecl {
	m := map[*types.Func]*ast.FuncDecl{}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if obj, ok := p.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				m[obj] = fd
			}
		}
	}
	return m
}

// StaticCallee resolves a call expression to the concrete *types.Func it
// statically invokes: a package function, a method on a concrete type, or
// a generic instantiation thereof. Interface method calls, calls through
// function values and builtins resolve to nil.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			fn, _ := sel.Obj().(*types.Func)
			if fn == nil {
				return nil
			}
			// Interface dispatch has no static callee.
			if types.IsInterface(sel.Recv()) {
				return nil
			}
			return fn
		}
		// Qualified identifier: pkg.Func.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// PointerShaped reports whether boxing a value of type t into an
// interface stores the word directly instead of heap-allocating a copy:
// pointers, channels, maps, funcs and unsafe pointers are one word.
func PointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}
