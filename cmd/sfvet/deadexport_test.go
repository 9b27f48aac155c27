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
// Methods and struct fields are out of scope.
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
	want := []string{"lib.OwnTestOnly", "lib.Unused", "lib.XTestOnly"}
	if strings.Join(dead, " ") != strings.Join(want, " ") {
		t.Fatalf("reported %q, want %q", dead, want)
	}
}

// testOnlyExports loads every package of the module at dir and returns,
// sorted, the exports of its non-main packages that no non-test file and
// no other package's test file references, as "pkgname.Name".
func testOnlyExports(dir string) ([]string, error) {
	loader := analysis.NewLoader(dir)
	pkgs, err := loader.Load("./...")
	if err != nil {
		return nil, err
	}
	used := map[types.Object]bool{}
	byPath := map[string]*types.Package{}
	for _, p := range pkgs {
		byPath[p.ImportPath] = p.Pkg
		for _, obj := range p.Info.Uses {
			used[obj] = true
		}
	}

	// Test files are parsed but not type-checked: a reference is a
	// selector pkg.Name whose pkg is one of the file's imports.
	tested, err := listTestFiles(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	for _, tp := range tested {
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
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != nil {
					if obj := imports[x.Name].Scope().Lookup(sel.Sel.Name); obj != nil {
						used[obj] = true
					}
				}
				return true
			})
		}
	}

	var dead []string
	for _, p := range pkgs {
		if p.Pkg.Name() == "main" {
			continue
		}
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			if obj := scope.Lookup(name); obj.Exported() && !used[obj] {
				dead = append(dead, p.Pkg.Name()+"."+name)
			}
		}
	}
	sort.Strings(dead)
	return dead, nil
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
