// Command sfexp regenerates the paper's tables and figures.
//
// Usage:
//
//	sfexp -exp ID|all [-scale tiny|small|paper] [-seed N] [-samples N] [-pattern P]
//	sfexp -list       # the experiment ids, in the order "all" runs them
//
// "fig6" is the generic form of the Figure 6 experiment: it accepts any
// traffic pattern registered in the scenario registry via -pattern
// (fig6a-d are shorthands for uniform, bitrev, shift and worstcase).
//
// Simulator-backed experiments (fig6*, fig8*) default to the small scale
// (N ~ 1000); the paper reports that 1K-10K endpoint networks give results
// within 10% of each other (Section V). Pass -scale paper for the full
// 10K-endpoint runs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"syscall"

	"slimfly/internal/cost"
	"slimfly/internal/exp"
	"slimfly/internal/obs"
	"slimfly/internal/scenario"
)

// experiment is one -exp id and what it prints.
type experiment struct {
	id  string
	run func()
}

func main() {
	var (
		which   = flag.String("exp", "", "experiment id (see usage); 'all' runs everything")
		scale   = flag.String("scale", "small", "simulation scale: tiny, small or paper")
		seed    = flag.Uint64("seed", 1, "deterministic seed")
		samples = flag.Int("samples", 24, "samples per resiliency point")
		pattern = flag.String("pattern", "uniform", "traffic pattern for the generic fig6 experiment (see sfsim -list)")
		debug   = flag.String("debug-addr", "", "serve /debug/vars and /debug/pprof on this address while running")
		list    = flag.Bool("list", false, "list experiment ids")
	)
	flag.Parse()
	if *debug != "" {
		d, err := obs.ServeDebug(*debug)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sfexp:", err)
			os.Exit(1)
		}
		defer d.Close()
		fmt.Fprintf(os.Stderr, "sfexp: debug listener on http://%s/debug/vars\n", d.Addr())
	}

	var sc exp.PerfScale // set from -scale before any experiment runs
	// Ctrl-C / SIGTERM cancels the sweep pool under the simulator-backed
	// experiments; they return the context's error.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	show := func(t *exp.Table, err error) {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "sfexp: interrupted")
			os.Exit(130)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "sfexp:", err)
			os.Exit(1)
		}
		fmt.Println(t)
	}

	// The experiments, in the order -list prints and "all" runs them.
	costPower := func() { fmt.Println(exp.CostPower(cost.FDR10(), 200, 42000, *seed)) }
	exps := []experiment{
		{"fig1", func() { fmt.Println(exp.Fig1(200, 5500, *seed)) }},
		{"fig5a", func() { fmt.Println(exp.Fig5a(100)) }},
		{"fig5b", func() { fmt.Println(exp.Fig5b(100)) }},
		{"fig5c", func() { fmt.Println(exp.Fig5c(200, 21000, *seed)) }},
		{"table2", func() { fmt.Println(exp.Table2(1000, *seed)) }},
		{"table3", func() {
			sizes := []int{256, 512, 1024, 2048}
			if *scale == "paper" {
				sizes = append(sizes, 4096, 8192)
			}
			fmt.Println(exp.Table3(sizes, *samples, *seed))
		}},
		{"diam-resil", func() { fmt.Println(exp.DiamResil(1000, *samples, *seed)) }},
		{"apl-resil", func() { fmt.Println(exp.APLResil(1000, *samples, *seed)) }},
		{"vc", func() { fmt.Println(exp.VCCounts(*seed)) }},
		// The generic form: the Figure 6 protocol set under any registered
		// traffic pattern (-pattern), not just the four subfigures of the
		// paper. "all" skips it: fig6a-d already run.
		{"fig6", func() {
			if err := scenario.CheckName(scenario.Patterns, *pattern); err != nil {
				fmt.Fprintln(os.Stderr, "sfexp:", err)
				os.Exit(2)
			}
			show(exp.Fig6(ctx, *pattern, sc, *seed))
		}},
		{"fig6a", func() { show(exp.Fig6(ctx, "uniform", sc, *seed)) }},
		{"fig6b", func() { show(exp.Fig6(ctx, "bitrev", sc, *seed)) }},
		{"fig6c", func() { show(exp.Fig6(ctx, "shift", sc, *seed)) }},
		{"fig6d", func() { show(exp.Fig6(ctx, "worstcase", sc, *seed)) }},
		{"fig8a", func() { show(exp.Fig8a(ctx, sc, *seed)) }},
		{"fig8be", func() { show(exp.Fig8be(ctx, sc, *seed)) }},
		{"cables", func() { fmt.Println(exp.CableModels()) }},
		{"routers", func() { fmt.Println(exp.RouterModels()) }},
		{"cost", costPower},
		{"power", costPower},
		{"table4", func() { fmt.Println(exp.Table4(*seed)) }},
		{"extensions", func() { fmt.Println(exp.Extensions(7, *seed)) }},
	}
	if *list {
		for _, e := range exps {
			fmt.Println(e.id)
		}
		return
	}
	if *which == "" {
		fmt.Fprintln(os.Stderr, "sfexp: -exp required (use -list for ids)")
		os.Exit(2)
	}
	switch *scale {
	case "tiny":
		sc = exp.TinyScale()
	case "small":
		sc = exp.SmallScale()
	case "paper":
		sc = exp.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "sfexp: unknown scale %q (tiny, small or paper)\n", *scale)
		os.Exit(2)
	}

	if *which == "all" {
		for _, e := range exps {
			if e.id != "fig6" {
				e.run()
			}
		}
		return
	}
	i := slices.IndexFunc(exps, func(e experiment) bool { return e.id == *which })
	if i < 0 {
		fmt.Fprintf(os.Stderr, "sfexp: unknown experiment %q\n", *which)
		os.Exit(2)
	}
	exps[i].run()
}
