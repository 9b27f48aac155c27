package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"slimfly/internal/analysis"
)

// TestNoTestOnlyExports is the dead-export gate: every exported
// package-level func, type, var and const of a non-main package must be
// referenced by a non-test file of some package (its own included) or by
// a test file of another package. An export only its own tests reach is
// test code living in the program; an export nothing reaches is dead.
//
// Exported methods of exported named types are judged too, by a rule that
// may miss a dead method but never flags a live one: a method is live
// when a non-test file refers to it (through Origin for generic types),
// when its name is a method of an interface the module declares or uses,
// or of one the runtime checks dynamically (dynamicMethods), or when
// another package's test file selects its name. Struct fields are out of
// scope.
//
// It is a test and not an analyzer because judging a package needs every
// importer of it, while analysis.Run visits one package at a time in
// dependency order.
func TestNoTestOnlyExports(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	dead, err := testOnlyExports("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Errorf("%s is exported but reached only by its own package's tests, or by nothing: delete it or move it into a _test.go file", d)
	}
}

// TestNoTestOnlyExportsFixture pins what the gate reports, and what it
// lets pass, on the module under testdata/deadexport.
func TestNoTestOnlyExportsFixture(t *testing.T) {
	dead, err := testOnlyExports("testdata/deadexport")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"lib.OwnTestOnly", "lib.T.Method", "lib.T.OwnTestMethod", "lib.Unused", "lib.XTestOnly"}
	if strings.Join(dead, " ") != strings.Join(want, " ") {
		t.Fatalf("reported %q, want %q", dead, want)
	}
}

// dynamicMethods are the methods of standard-library interfaces that the
// runtime finds by a dynamic type check (fmt, encoding/json, errors,
// net/http, io, sort), so a type may satisfy them without the module
// naming the interface.
var dynamicMethods = map[string]bool{
	"String": true, "Error": true, "Format": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Unwrap": true, "ServeHTTP": true, "Read": true, "Write": true, "Close": true,
	"Len": true, "Less": true, "Swap": true,
}

// testOnlyExports loads every package of the module at dir and returns,
// sorted, the exports of its non-main packages that no non-test file and
// no other package's test file references, as "pkgname.Name" or
// "pkgname.Type.Method".
func testOnlyExports(dir string) ([]string, error) {
	loader := analysis.NewLoader(dir)
	pkgs, err := loader.Load("./...")
	if err != nil {
		return nil, err
	}
	used := map[types.Object]bool{}
	ifaceMethods := map[string]bool{}
	byPath := map[string]*types.Package{}
	for _, p := range pkgs {
		byPath[p.ImportPath] = p.Pkg
		for _, obj := range p.Info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin()
			}
			used[obj] = true
		}
		// Every expression's type: the interfaces the module declares,
		// names or hands values to.
		for _, tv := range p.Info.Types {
			addIfaceMethods(ifaceMethods, tv.Type)
		}
	}

	// Test files are parsed but not type-checked: a reference is a
	// selector pkg.Name whose pkg is one of the file's imports, and any
	// selector x.Name may call a method Name.
	tested, err := listTestFiles(dir)
	if err != nil {
		return nil, err
	}
	testSelected := map[string]map[string]bool{} // import path -> names its tests select
	fset := token.NewFileSet()
	for _, tp := range tested {
		selected := map[string]bool{}
		testSelected[tp.ImportPath] = selected
		for _, name := range append(tp.TestGoFiles, tp.XTestGoFiles...) {
			f, err := parser.ParseFile(fset, filepath.Join(tp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			imports := map[string]*types.Package{}
			for _, spec := range f.Imports {
				path, _ := strconv.Unquote(spec.Path.Value)
				pkg := byPath[path]
				if pkg == nil || path == tp.ImportPath {
					continue // not module code, or the package's own tests
				}
				local := pkg.Name()
				if spec.Name != nil {
					local = spec.Name.Name
				}
				imports[local] = pkg
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				selected[sel.Sel.Name] = true
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != nil {
					if obj := imports[x.Name].Scope().Lookup(sel.Sel.Name); obj != nil {
						used[obj] = true
					}
				}
				return true
			})
		}
	}
	otherTestSelects := func(importPath, name string) bool {
		for path, selected := range testSelected {
			if path != importPath && selected[name] {
				return true
			}
		}
		return false
	}

	var dead []string
	for _, p := range pkgs {
		if p.Pkg.Name() == "main" {
			continue
		}
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if !used[obj] {
				dead = append(dead, p.Pkg.Name()+"."+name)
			}
			named, ok := obj.Type().(*types.Named)
			if !ok || named.Obj() != obj {
				continue // not a type, or an alias
			}
			for m := range named.Methods() {
				if m.Exported() && !used[m] && !ifaceMethods[m.Name()] && !dynamicMethods[m.Name()] &&
					!otherTestSelects(p.ImportPath, m.Name()) {
					dead = append(dead, p.Pkg.Name()+"."+name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// addIfaceMethods records the method names of t when t is an interface
// (or a type parameter constrained by one), and of the interfaces among
// the parameters and results when t is a function: passing a value to an
// io.Writer parameter uses io.Writer.
func addIfaceMethods(names map[string]bool, t types.Type) {
	if sig, ok := t.(*types.Signature); ok {
		for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
			for v := range tuple.Variables() {
				addIfaceMethods(names, v.Type())
			}
		}
		return
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		for m := range iface.Methods() {
			names[m.Name()] = true
		}
	}
}

type testedPkg struct {
	ImportPath   string
	Dir          string
	TestGoFiles  []string
	XTestGoFiles []string
}

// listTestFiles asks `go list` for the test files of every package of
// the module at dir.
func listTestFiles(dir string) ([]testedPkg, error) {
	cmd := exec.Command("go", "list", "-json=ImportPath,Dir,TestGoFiles,XTestGoFiles", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []testedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var tp testedPkg
		if err := dec.Decode(&tp); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, tp)
	}
}
