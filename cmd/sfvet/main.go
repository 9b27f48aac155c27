// Command sfvet is the repo's custom static checker: two analyzers that
// turn the engine's load-bearing runtime invariants into compile-time
// gates.
//
//	hotalloc    //sf:hotpath functions (and static callees) must not allocate
//	detrand     no global RNG, wall clock or unordered map ranges in deterministic packages
//
// Two module-wide rules are tests rather than analyzers: every
// scenario.Spec field enters Spec.Key or is a pinned exclusion
// (TestSpecKeyFields in internal/scenario), and no export is reached only
// by its own package's tests (TestNoTestOnlyExports here).
//
// Usage (the first line is the CI gate):
//
//	go run ./cmd/sfvet ./...
//	sfvet -checks hotalloc,detrand ./internal/sim
//	sfvet -list
//
// Exit status: 0 clean, 1 the checker itself failed, 2 diagnostics.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"slimfly/internal/analysis"
	"slimfly/internal/analysis/detrand"
	"slimfly/internal/analysis/hotalloc"
)

var all = []*analysis.Analyzer{
	hotalloc.Analyzer,
	detrand.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("sfvet", flag.ContinueOnError)
	checks := fs.String("checks", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *list {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers := all
	if *checks != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*checks, ",") {
			a := byName[strings.TrimSpace(name)]
			if a == nil {
				fmt.Fprintf(os.Stderr, "sfvet: unknown analyzer %q (try -list)\n", name)
				return 1
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfvet:", err)
		return 1
	}
	loader := analysis.NewLoader(cwd)
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfvet:", err)
		return 1
	}
	diags, err := analysis.Run(loader.Fset, analyzers, pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfvet:", err)
		return 1
	}
	if len(diags) > 0 {
		analysis.Print(os.Stdout, loader.Fset, diags)
		fmt.Fprintf(os.Stderr, "sfvet: %d invariant violation(s)\n", len(diags))
		return 2
	}
	return 0
}
