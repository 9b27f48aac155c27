// Command sfbench is the repo's benchmark: five workloads that between
// them pass through every layer a simulated flit or a submitted sweep
// does -- field and graph construction, routing build, sim.New, a whole
// sim.Run, a sweep job cold and warm, an sfsweepd request -- measured from
// outside, by timing calls into each package's public functions and by
// reading the internal/obs instruments that already exist. BENCHMARK.json
// at the repo root declares the workloads and every metric; bench/ holds
// the pinned simulated statistics, the result history and the README.
//
// Simulated statistics are deterministic and are checked exactly; host
// time is what is measured.
//
//	sfbench                          every workload once, end-to-end metrics
//	sfbench -trace                   ... then once more traced: per-layer metrics + span files
//	sfbench -runs 5 -trace -out f    a complete result set for -compare
//	sfbench -workload W -seed N -seconds S -trace 0|1   one run, in this process
//	sfbench -compare old.json new.json
//	sfbench -write-ref               rewrite bench/ref/*.json (seed 1)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// processStart anchors the first set-up measurement of a run at process
// start rather than at main.
var processStart = time.Now()

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("sfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run this one workload in this process and print its result line")
		seed     = fs.Uint64("seed", 1, "seed for every generated input; run i of -runs uses seed+i")
		seconds  = fs.Float64("seconds", 0, "measuring time per run (default: run_seconds of BENCHMARK.json)")
		trace    = fs.Bool("trace", false, "traced run: per-layer metrics and a Chrome-trace span file")
		runs     = fs.Int("runs", 1, "un-traced runs per workload")
		out      = fs.String("out", "", "write the result set to this file")
		compare  = fs.Bool("compare", false, "compare two result sets: sfbench -compare old.json new.json")
		writeRef = fs.Bool("write-ref", false, "rewrite bench/ref/<workload>.json instead of checking against it")
	)
	if err := fs.Parse(boolValueArgs(args, "trace")); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	d, err := loadDecl(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fail(err)
	}
	if *seconds <= 0 {
		*seconds = float64(d.RunSeconds)
	}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result-set files"))
		}
		return compareFiles(os.Stdout, d, fs.Arg(0), fs.Arg(1))
	case *workload != "":
		fn, ok := workloads[*workload]
		if !ok {
			return fail(fmt.Errorf("unknown workload %q (see BENCHMARK.json)", *workload))
		}
		r := newRun(d, *workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace)
		r.refDir = filepath.Join(root, "bench", "ref")
		r.writeRef = *writeRef
		r.tmpRoot = filepath.Join(root, ".bench_build")
		rep := r.execute(fn)
		rep.print(os.Stdout)
		if !rep.Correct {
			return 1
		}
		return 0
	}

	// Parent mode: every workload in a fresh child process, so peak RSS
	// and the obs registry are per workload.
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	set := resultSet{
		Commit: vcsRevision(), Go: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	child := func(w string, seed uint64, trace bool) bool {
		cmd := exec.Command(exe, "-workload", w, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(*seconds), fmt.Sprintf("-trace=%t", trace), fmt.Sprintf("-write-ref=%t", *writeRef))
		cmd.Dir = root
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		os.Stdout.Write(stdout)
		rep, perr := parseReport(stdout)
		if perr != nil {
			fmt.Fprintf(os.Stderr, "sfbench: %s: %v (child: %v)\n", w, perr, err)
			return false
		}
		set.Runs = append(set.Runs, setRun{Workload: w, Seed: seed, Trace: trace, report: *rep})
		return err == nil && rep.Correct
	}
	ok := true
	var plainWall, tracedWall time.Duration
	for _, w := range d.Workloads {
		t0 := time.Now()
		for i := 0; i < *runs; i++ {
			ok = child(w.Name, *seed+uint64(i), false) && ok
		}
		plainWall += time.Since(t0)
		if *trace {
			t0 = time.Now()
			ok = child(w.Name, *seed, true) && ok
			tracedWall += time.Since(t0)
		}
	}
	fmt.Printf("# un-traced wall %.1f s (%d run(s) x %d workloads)\n", plainWall.Seconds(), *runs, len(d.Workloads))
	if *trace {
		fmt.Printf("# traced wall %.1f s\n", tracedWall.Seconds())
	}
	if *out != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// boolValueArgs rewrites "-name 0|1" into "-name=0|1": the flag package
// never consumes a separate value for a boolean flag, and the benchmark
// contract passes "--trace 0" / "--trace 1".
func boolValueArgs(args []string, name string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-"+name || a == "--"+name) && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, a+"="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

// findRoot walks up from the working directory to the one holding
// BENCHMARK.json: the repo root for `go run ./cmd/sfbench`, two levels up
// for the package's own tests.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found in the working directory or any parent")
		}
		dir = parent
	}
}

// vcsRevision is the commit the binary was built from, where the build
// stamped one (`go build` in a git checkout does; `go run` does not).
func vcsRevision() string {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					rev += "+modified"
				}
			}
		}
	}
	return rev
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "sfbench:", err)
	return 2
}
