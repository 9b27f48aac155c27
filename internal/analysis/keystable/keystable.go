// Package keystable guards the cache-key stability of scenario.Spec, the
// content address every sweep cache -- including PR 9's distributed store,
// where all workers share one cache -- trusts completely. Spec.Key hashes
// the spec's canonical JSON encoding, so a field's key membership IS its
// JSON visibility; a new field that marshals by default silently changes
// every key (safe: old entries become unreachable), but a field that is
// invisible to the marshaller silently does NOT -- two scenarios differing
// only in that field collide on one cache slot and poison every worker
// reading it.
//
// The rule made compile-gate: every field of Spec and of the structs it
// reaches (TopoSpec, SimParams, embedded structs) must be exported and
// carry an explicit json tag -- either a name (the field flows into the
// key) or "-" plus membership in the pinned exclusion list below (the
// field is a documented knob that must NOT enter the key, like
// SimParams.Workers, which the engine ignores). A field that does neither
// is a diagnostic here instead of a
// cache-poisoning incident in production.
package keystable

import (
	"go/ast"
	"go/types"
	"reflect"
	"strings"

	"slimfly/internal/analysis"
)

// Analyzer is the keystable pass.
var Analyzer = &analysis.Analyzer{
	Name: "keystable",
	Doc:  "every scenario.Spec field must flow into Spec.Key or be a pinned exclusion",
	Run:  run,
}

// excluded is the pinned exclusion list: fields reviewed and documented
// as execution knobs outside the scenario's identity, keyed
// "Struct.Field". Growing this list is a reviewed decision, not a tag
// edit: the entry here and the json:"-" tag must both be present.
var excluded = map[string]bool{
	"SimParams.Workers": true, // ignored by the engine; the field stays only because cmd/sfbench sets it
}

// rootType is the struct the walk starts from, in the package the walk
// triggers on.
const (
	rootPackage = "scenario"
	rootType    = "Spec"
)

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() != rootPackage {
		return nil
	}
	root := pass.Pkg.Scope().Lookup(rootType)
	if root == nil {
		return nil
	}
	rootNamed, ok := root.Type().(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := rootNamed.Underlying().(*types.Struct); !ok {
		return nil
	}

	// Index struct type declarations so diagnostics land on field
	// declarations, not on uses.
	fields := map[string]map[string]*ast.Field{} // type name -> field name -> decl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				m := map[string]*ast.Field{}
				for _, fld := range st.Fields.List {
					if len(fld.Names) == 0 {
						// Embedded field: index under the type's name.
						m[embeddedName(fld.Type)] = fld
						continue
					}
					for _, n := range fld.Names {
						m[n.Name] = fld
					}
				}
				fields[ts.Name.Name] = m
			}
		}
	}

	visited := map[string]bool{}
	var walk func(named *types.Named)
	walk = func(named *types.Named) {
		typeName := named.Obj().Name()
		if visited[typeName] || named.Obj().Pkg() != pass.Pkg {
			return
		}
		visited[typeName] = true
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			return
		}
		declFields := fields[typeName]
		for i := 0; i < st.NumFields(); i++ {
			fld := st.Field(i)
			pos := named.Obj().Pos()
			if decl := declFields[fld.Name()]; decl != nil {
				pos = decl.Pos()
			}
			key := typeName + "." + fld.Name()

			if !fld.Exported() {
				pass.Reportf(pos,
					"export the field with an explicit json tag, or hoist the state out of the spec",
					"unexported field %s is invisible to json.Marshal and silently excluded from Spec.Key: two specs differing only here collide on one cache entry", key)
				continue
			}

			tag := reflect.StructTag(st.Tag(i))
			jsonTag, hasTag := tag.Lookup("json")
			jsonName := strings.Split(jsonTag, ",")[0]
			switch {
			case !hasTag:
				pass.Reportf(pos,
					`add json:"name" (field enters the cache key) or json:"-" plus an entry in keystable's pinned exclusion list`,
					"field %s has no json tag: its Spec.Key membership must be explicit, not a marshalling default", key)
			case jsonName == "-":
				if !excluded[key] {
					pass.Reportf(pos,
						"add the field to keystable's pinned exclusion list (a reviewed decision) or give it a json name so it enters the key",
						`field %s carries json:"-" but is not in the pinned exclusion list: it would silently not distinguish cache entries`, key)
				}
			}

			// Recurse into same-package struct-typed fields (named or
			// embedded): their fields are part of the encoding too.
			t := fld.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				walk(n)
			}
		}
	}
	walk(rootNamed)
	return nil
}

// embeddedName returns the name an embedded field is indexed under.
func embeddedName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return embeddedName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}
