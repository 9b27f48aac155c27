package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"slimfly/internal/stats"
)

// decl is BENCHMARK.json: the single declaration of the workloads and of
// every metric's name, unit, direction and regression bound.
type decl struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []nameWhy    `json:"workloads"`
	EndToEnd   []metricDecl `json:"end_to_end"`
	PerLayer   []metricDecl `json:"per_layer"`
}

type nameWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadDecl(path string) (*decl, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var d decl
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// find returns the declaration of metric name in list.
func find(list []metricDecl, name string) (metricDecl, bool) {
	for _, m := range list {
		if m.Name == name {
			return m, true
		}
	}
	return metricDecl{}, false
}

// run is the state of one workload run: the seeded generator every input
// derives from, the measuring budget, the optional tracer, the metric
// values set so far and the operation ledger behind attempted/failed.
type run struct {
	decl    *decl
	name    string
	seed    uint64
	rng     *stats.RNG
	budget  time.Duration
	tr      *tracer // nil on an un-traced run
	tmpRoot string  // scratch directories are created (and removed) under it

	// refDir holds the pinned simulated statistics; "" disables the
	// comparison (reduced-size test runs have no pinned values).
	refDir   string
	writeRef bool

	values    map[string]float64
	tracePath string // where a traced run wrote its spans

	setup   func(i int) (cleanup func(), err error) // the workload's set-up, see setUp
	setupDs []time.Duration                         // every timed set-up

	mu        sync.Mutex // op is called from the workloads' client goroutines
	attempted int
	failures  []string
}

// refSeed is the only seed the pinned statistics of bench/ref apply to.
const refSeed = 1

func newRun(d *decl, name string, seed uint64, budget time.Duration, traced bool) *run {
	r := &run{
		decl: d, name: name, seed: seed, rng: stats.NewRNG(seed),
		budget: budget, values: make(map[string]float64),
	}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// op records one operation of the workload -- a sim run, a job, a build,
// an HTTP request or an output check -- and, when it did not hold, why.
func (r *run) op(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// opErr is op for the common "this call must not fail" case.
func (r *run) opErr(err error, what string) bool {
	r.op(err == nil, "%s: %v", what, err)
	return err == nil
}

// set records a metric value. Setting an undeclared name, or one name
// twice, is a failed operation: BENCHMARK.json and the workloads must not
// drift apart silently.
func (r *run) set(name string, v float64) {
	list := r.decl.EndToEnd
	if r.tr != nil {
		list = r.decl.PerLayer
	}
	if _, ok := find(list, name); !ok {
		r.op(false, "metric %q is not declared in BENCHMARK.json for this kind of run", name)
		return
	}
	if _, dup := r.values[name]; dup {
		r.op(false, "metric %q set twice", name)
		return
	}
	r.values[name] = v
}

// scratchRoot makes sure the directory scratch files go under exists:
// .bench_build inside the checkout, the system's temporary directory in
// tests.
func (r *run) scratchRoot() (string, error) {
	root := r.tmpRoot
	if root == "" {
		root = os.TempDir()
	}
	return root, os.MkdirAll(root, 0o755)
}

// tempDir makes a scratch directory.
func (r *run) tempDir() (string, error) {
	root, err := r.scratchRoot()
	if err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "sfbench-"+r.name+"-")
}

// checkRef compares the workload's simulated statistics with the pinned
// bench/ref/<workload>.json (or rewrites the file under -write-ref). The
// pinned values hold at refSeed only; other seeds are covered by the
// invariant checks each workload makes itself.
func (r *run) checkRef(simulated map[string]any) {
	if r.refDir == "" || r.seed != refSeed {
		return
	}
	got, err := json.MarshalIndent(simulated, "", " ")
	if !r.opErr(err, "encoding simulated statistics") {
		return
	}
	got = append(got, '\n')
	path := filepath.Join(r.refDir, r.name+".json")
	if r.writeRef {
		r.opErr(os.WriteFile(path, got, 0o644), "writing "+path)
		return
	}
	want, err := os.ReadFile(path)
	if !r.opErr(err, "reading pinned statistics") {
		return
	}
	r.op(bytes.Equal(got, want), "simulated statistics differ from %s:\n got %s want %s", path, got, want)
}

// execute runs the workload and assembles its report. A traced run
// reports every per-layer metric, an un-traced one every end-to-end
// metric; a per-layer metric whose layer the workload does not pass
// through reads 0.
func (r *run) execute(fn func(*run)) *report {
	t0 := time.Now()
	fn(r)
	list := r.decl.EndToEnd
	if r.tr != nil {
		list = r.decl.PerLayer
		r.set("bench.spans", float64(len(r.tr.spans)))
		r.writeTrace()
	} else {
		r.set("setup_s", fastTime(seconds(r.setupDs)))
		r.set("peak_rss_mib", peakRSSMiB())
		for _, m := range list {
			_, ok := r.values[m.Name]
			r.op(ok, "end-to-end metric %q was not measured", m.Name)
		}
	}
	rep := &report{
		Workload: r.name, Seed: r.seed, Trace: r.tr != nil,
		Correct: len(r.failures) == 0, Attempted: r.attempted, Failed: len(r.failures),
		Metrics: make(map[string]metricValue, len(list)),
		decls:   list, failures: r.failures, wall: time.Since(t0), tracePath: r.tracePath,
	}
	for _, m := range list {
		rep.Metrics[m.Name] = metricValue{Value: r.values[m.Name], Unit: m.Unit}
	}
	if r.tr != nil {
		rep.selfTimes = r.tr.selfByName()
	}
	return rep
}

// writeTrace writes the spans as Chrome-trace JSON next to the scratch
// directories and checks that the repo's own validator accepts the file.
func (r *run) writeTrace() {
	root, err := r.scratchRoot()
	if !r.opErr(err, "trace directory") {
		return
	}
	path := filepath.Join(root, "trace-"+r.name+".json")
	r.tracePath = path
	f, err := os.Create(path)
	if !r.opErr(err, "creating span file") {
		return
	}
	err = r.tr.writeChrome(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if !r.opErr(err, "writing span file") {
		return
	}
	r.opErr(validateTraceFile(path), "export.ValidateChromeTrace("+path+")")
}

// report is the outcome of one run. Its JSON form is the result line the
// benchmark contract asks for: exactly correct, attempted, failed and
// metrics.
type report struct {
	Workload string `json:"-"`
	Seed     uint64 `json:"-"`
	Trace    bool   `json:"-"`

	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	decls     []metricDecl
	failures  []string
	selfTimes []selfTime
	tracePath string
	wall      time.Duration
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes every metric by name with its unit and direction, the
// failed checks, and last the one-line JSON result.
func (rep *report) print(w io.Writer) {
	kind := "end-to-end"
	if rep.Trace {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "# %s seed=%d: %s metrics, %d/%d operations ok, %.1f s wall\n",
		rep.Workload, rep.Seed, kind, rep.Attempted-rep.Failed, rep.Attempted, rep.wall.Seconds())
	for _, m := range rep.decls {
		fmt.Fprintf(w, "%-22s %-34s %16.6g %-6s (%s is better)\n", rep.Workload, m.Name, rep.Metrics[m.Name].Value, m.Unit, m.Better)
	}
	if len(rep.selfTimes) > 0 {
		fmt.Fprintf(w, "# %s: spans written to %s\n", rep.Workload, rep.tracePath)
		fmt.Fprintf(w, "# %s: layer self time (span minus the part its children cover)\n", rep.Workload)
		for _, s := range rep.selfTimes {
			fmt.Fprintf(w, "#   %-28s %8d spans %12.3f ms total %12.3f ms self\n", s.Name, s.Count, ms(s.Total), ms(s.Self))
		}
	}
	for _, f := range rep.failures {
		fmt.Fprintf(w, "FAILED %s: %s\n", rep.Workload, f)
	}
	line, _ := json.Marshal(rep) // maps of scalars: cannot fail
	fmt.Fprintf(w, "%s\n", line)
}

// parseReport reads the result line back from a child's standard output.
func parseReport(stdout []byte) (*report, error) {
	lines := strings.Split(strings.TrimRight(string(stdout), "\n"), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &rep, nil
}

// peakRSSMiB is VmHWM of this process, the high-water resident set.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kib float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kib)
			return kib / 1024
		}
	}
	return 0
}

// --- timing helpers ---------------------------------------------------

// setUp times the workload's set-up f at least three times and for at
// least a tenth of the measuring budget in all, the first time from
// process start. The cleanup f returns runs untimed. Where a set-up takes
// less than a hundredth of the budget, reps takes one more sample before
// every rep: the cheap set-ups are the noisiest, and a slow stretch of the
// box at the start of the run must not cover all of their samples.
func (r *run) setUp(f func(i int) (cleanup func(), err error)) error {
	r.setup = f
	var total time.Duration
	for i := 0; i < 3 || (total < r.budget/10 && i < 200); i++ {
		if err := r.setupSample(); err != nil {
			return err
		}
		total += r.setupDs[i]
	}
	debug.FreeOSMemory() // the warm-up rep that follows starts like every rep, too
	return nil
}

func (r *run) setupSample() error {
	debug.FreeOSMemory() // each set-up starts like each rep: see reps
	t0 := time.Now()
	if len(r.setupDs) == 0 {
		t0 = processStart
	}
	cleanup, err := r.setup(len(r.setupDs))
	d := time.Since(t0)
	if cleanup != nil {
		cleanup()
	}
	if err == nil {
		r.setupDs = append(r.setupDs, d)
	}
	return err
}

// reps calls f, numbering the calls from 1, until both the measuring
// budget has elapsed and f has run minReps times. On a traced run the odd
// reps are traced and the even ones plain (tr is nil), at least two of
// each: their difference is the tracing overhead. Callers run their own
// untimed warm-up rep first. Every rep starts from a collected heap whose
// free pages went back to the OS, as a fresh process would: what the
// previous rep left behind is neither collected on this rep's time nor
// counted in its peak memory (left to itself the allocator sometimes
// reuses the previous rep's pages and sometimes maps new ones, and peak
// RSS then reads one or two simulators' worth from run to run).
func (r *run) reps(minReps int, f func(n int, tr *tracer)) {
	if r.tr != nil {
		minReps = max(minReps, 4)
	}
	cheapSetup := r.setup != nil && fastTime(seconds(r.setupDs)) < r.budget.Seconds()/100
	start := time.Now()
	for n := 1; n <= minReps || time.Since(start) < r.budget; n++ {
		if cheapSetup {
			r.opErr(r.setupSample(), "set-up")
		}
		debug.FreeOSMemory()
		if n%2 == 1 {
			f(n, r.tr)
		} else {
			f(n, nil)
		}
	}
}

// scale expresses durations in the given unit.
func scale(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

func seconds(ds []time.Duration) []float64 { return scale(ds, time.Second) }
func millis(ds []time.Duration) []float64  { return scale(ds, time.Millisecond) }
func micros(ds []time.Duration) []float64  { return scale(ds, time.Microsecond) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of vals;
// 0 for an empty slice.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s))/100)) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fastTime and fastRate are the statistic behind every end-to-end timing:
// the fastest decile of the samples (nearest rank; the best sample when
// there are fewer than ten). The benchmark's box is shared, and its noise
// comes in bursts of seconds that slow whatever runs in them by up to
// half; a median moves with every burst that covers half a run, the
// fastest decile only with one that covers nearly all of it. A change to
// the program moves every sample, the fast ones included.
func fastTime(secs []float64) float64 { return percentile(secs, 10) }
func fastRate(rates []float64) float64 {
	neg := make([]float64, len(rates))
	for i, r := range rates {
		neg[i] = -r
	}
	return -percentile(neg, 10)
}

// pctOver is how much a exceeds b, as a percentage of b.
func pctOver(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return (a - b) / b * 100
}

// workloads maps each workload BENCHMARK.json names to its code, at the
// sizes the issue fixed; the tests call the same functions with smaller
// ones.
var workloads = map[string]func(*run){
	"engine_min_uniform":    func(r *run) { engineWorkload(r, engineMinUniform) },
	"engine_ugal_worstcase": func(r *run) { engineWorkload(r, engineUgalWorstcase) },
	"build_ladder":          func(r *run) { ladderWorkload(r, ladderFull) },
	"fig6_pool":             func(r *run) { poolWorkload(r, gridFull) },
	"service_loopback":      func(r *run) { serviceWorkload(r, gridFull) },
}
