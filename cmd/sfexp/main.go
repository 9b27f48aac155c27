// Command sfexp regenerates the paper's tables and figures.
//
// Usage:
//
//	sfexp -exp fig1|fig5a|fig5b|fig5c|table2|table3|diam-resil|apl-resil|
//	          vc|fig6|fig6a|fig6b|fig6c|fig6d|fig8a|fig8be|cables|routers|
//	          cost|power|table4|extensions|all
//	      [-scale tiny|small|paper] [-seed N] [-samples N] [-pattern P]
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
	"syscall"

	"slimfly/internal/cost"
	"slimfly/internal/exp"
	"slimfly/internal/obs"
	"slimfly/internal/scenario"
)

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

	ids := []string{
		"fig1", "fig5a", "fig5b", "fig5c", "table2", "table3",
		"diam-resil", "apl-resil", "vc", "fig6", "fig6a", "fig6b", "fig6c", "fig6d",
		"fig8a", "fig8be", "cables", "routers", "cost", "power", "table4", "extensions",
	}
	if *list {
		for _, id := range ids {
			fmt.Println(id)
		}
		return
	}
	if *which == "" {
		fmt.Fprintln(os.Stderr, "sfexp: -exp required (use -list for ids)")
		os.Exit(2)
	}

	var sc exp.PerfScale
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

	run := func(id string) {
		switch id {
		case "fig1":
			fmt.Println(exp.Fig1(200, 5500, *seed))
		case "fig5a":
			fmt.Println(exp.Fig5a(100))
		case "fig5b":
			fmt.Println(exp.Fig5b(100))
		case "fig5c":
			fmt.Println(exp.Fig5c(200, 21000, *seed))
		case "table2":
			fmt.Println(exp.Table2(1000, *seed))
		case "table3":
			sizes := []int{256, 512, 1024, 2048}
			if *scale == "paper" {
				sizes = append(sizes, 4096, 8192)
			}
			fmt.Println(exp.Table3(sizes, *samples, *seed))
		case "diam-resil":
			fmt.Println(exp.DiamResil(1000, *samples, *seed))
		case "apl-resil":
			fmt.Println(exp.APLResil(1000, *samples, *seed))
		case "vc":
			fmt.Println(exp.VCCounts(*seed))
		case "fig6":
			// The generic form: the Figure 6 protocol set under any
			// registered traffic pattern (-pattern), not just the four
			// subfigures of the paper.
			if err := scenario.CheckName(scenario.Patterns, *pattern); err != nil {
				fmt.Fprintln(os.Stderr, "sfexp:", err)
				os.Exit(2)
			}
			show(exp.Fig6(ctx, *pattern, sc, *seed))
		case "fig6a":
			show(exp.Fig6(ctx, "uniform", sc, *seed))
		case "fig6b":
			show(exp.Fig6(ctx, "bitrev", sc, *seed))
		case "fig6c":
			show(exp.Fig6(ctx, "shift", sc, *seed))
		case "fig6d":
			show(exp.Fig6(ctx, "worstcase", sc, *seed))
		case "fig8a":
			show(exp.Fig8a(ctx, sc, *seed))
		case "fig8be":
			show(exp.Fig8be(ctx, sc, *seed))
		case "cables":
			fmt.Println(exp.CableModels())
		case "routers":
			fmt.Println(exp.RouterModels())
		case "cost", "power":
			fmt.Println(exp.CostPower(cost.FDR10(), 200, 42000, *seed))
		case "table4":
			fmt.Println(exp.Table4(*seed))
		case "extensions":
			fmt.Println(exp.Extensions(7, *seed))
		default:
			fmt.Fprintf(os.Stderr, "sfexp: unknown experiment %q\n", id)
			os.Exit(2)
		}
	}

	if *which == "all" {
		for _, id := range ids {
			if id == "fig6" {
				continue // parameterised form; "all" already runs fig6a-d
			}
			run(id)
		}
		return
	}
	run(*which)
}
