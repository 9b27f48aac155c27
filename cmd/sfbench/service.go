package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"slimfly/internal/export"
	"slimfly/internal/stats"
	"slimfly/internal/sweep"
	"slimfly/internal/sweepd"
)

// idHeader carries the span id of a traced request from the benchmark's
// client to the benchmark's handler wrapper, so the server-side span (and
// the Store spans under it) nest under the client's. The program under
// test never reads it.
const idHeader = "X-Sfbench-Id"

// service is an in-process sweepd.Server behind an httptest.Server: real
// loopback TCP, no real network.
type service struct {
	*serviceRun
	tr  *tracer
	srv *sweepd.Server
	ts  *httptest.Server
	h   *timedHandler // nil on a plain service

	cache *sweep.Cache // what the server's store is, or wraps
}

// serve puts a server over cache. A traced service runs behind the
// handler wrapper and the timing Store; a plain one is exactly what
// cmd/sfsweepd mounts. The caller Starts the server.
func (sr *serviceRun) serve(tr *tracer, cache *sweep.Cache) *service {
	s := &service{serviceRun: sr, tr: tr, cache: cache}
	var store sweep.Store = cache
	if tr != nil {
		store = &timedStore{Store: cache, tr: tr, times: sr.times}
	}
	s.srv = sweepd.New(sweepd.Config{Store: store, Workers: sr.g.workers})
	var h http.Handler = s.srv
	if tr != nil {
		s.h = &timedHandler{next: s.srv, tr: tr, byRoute: make(map[string][]time.Duration)}
		h = s.h
	}
	s.ts = httptest.NewServer(h)
	return s
}

// stop drains the server (in-flight jobs finish and commit, event
// streams end) and then closes the listener.
func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	s.r.opErr(s.srv.Drain(ctx), "Drain")
	s.ts.Close()
}

// do issues one request and reads the whole reply. Every request is an
// operation of the workload; a transport error or a non-2xx status fails
// it.
func (s *service) do(id, what, method, path string, body []byte) ([]byte, time.Duration, bool) {
	sp := s.tr.start(id, what)
	defer sp.end()
	t0 := time.Now()
	req, err := http.NewRequest(method, s.ts.URL+path, bytes.NewReader(body))
	if !s.r.opErr(err, what) {
		return nil, 0, false
	}
	if s.tr != nil {
		req.Header.Set(idHeader, id)
	}
	resp, err := s.ts.Client().Do(req)
	if !s.r.opErr(err, what) {
		return nil, 0, false
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	ok := err == nil && resp.StatusCode/100 == 2
	if resp.StatusCode/100 != 2 {
		s.non2xx.Add(1)
	}
	s.r.op(ok, "%s %s: status %d, read error %v: %s", method, path, resp.StatusCode, err, data)
	return data, time.Since(t0), ok
}

// round is one submission of the whole grid: every spec POSTed, every
// sweep's event stream followed to its end.
type round struct {
	ids         []string
	submit      []time.Duration
	firstResult time.Duration // submit of the first spec -> first result event on any stream
	complete    time.Duration // ... -> last stream ended
	events      int           // SSE events of every kind
	results     int           // SSE result events
}

func (s *service) round(tag string, specs [][]byte) (round, bool) {
	var rd round
	t0 := time.Now()
	for i, spec := range specs {
		id := fmt.Sprintf("%s-submit-%d", tag, i)
		data, d, ok := s.do(id, "POST /sweeps", http.MethodPost, "/api/v1/sweeps", spec)
		if !ok {
			return rd, false
		}
		var st sweepd.Status
		if !s.r.opErr(json.Unmarshal(data, &st), "decoding the submission reply") {
			return rd, false
		}
		rd.ids = append(rd.ids, st.ID)
		rd.submit = append(rd.submit, d)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, id := range rd.ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			events, results, first, err := s.follow(tag+"-events-"+id, id, t0)
			mu.Lock()
			defer mu.Unlock()
			s.r.opErr(err, "event stream of "+id)
			rd.events += events
			rd.results += results
			if results > 0 && (rd.firstResult == 0 || first < rd.firstResult) {
				rd.firstResult = first
			}
		}()
	}
	wg.Wait()
	rd.complete = time.Since(t0)
	return rd, true
}

// follow reads one sweep's SSE stream until the server ends it, counting
// events and noting when the first result arrived (relative to t0).
func (s *service) follow(spanID, sweepID string, t0 time.Time) (events, results int, first time.Duration, err error) {
	sp := s.tr.start(spanID, "GET /sweeps/{id}/events")
	defer sp.end()
	req, err := http.NewRequest(http.MethodGet, s.ts.URL+"/api/v1/sweeps/"+sweepID+"/events", nil)
	if err != nil {
		return
	}
	if s.tr != nil {
		req.Header.Set(idHeader, spanID)
	}
	resp, err := s.ts.Client().Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20) // a result event carries a whole collector summary
	for sc.Scan() {
		kind, ok := strings.CutPrefix(sc.Text(), "event: ")
		if !ok {
			continue
		}
		events++
		if kind == "result" {
			if results == 0 {
				first = time.Since(t0)
			}
			results++
		}
	}
	return events, results, first, sc.Err()
}

// results fetches the accumulated results of the round's sweeps in job
// order, in one of the server's three formats.
func (s *service) results(tag string, rd round, format string) (bodies [][]byte, total time.Duration, ok bool) {
	for _, id := range rd.ids {
		data, d, ok := s.do(tag+"-results-"+id, "GET /sweeps/{id}/results "+format, http.MethodGet,
			"/api/v1/sweeps/"+id+"/results?format="+format, nil)
		if !ok {
			return nil, 0, false
		}
		bodies = append(bodies, data)
		total += d
	}
	return bodies, total, true
}

func decodeResults(bodies [][]byte) ([]sweep.JobResult, error) {
	var all []sweep.JobResult
	for _, b := range bodies {
		a, err := export.ReadSweepJSON(bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		all = append(all, a.Results...)
	}
	return all, nil
}

// timedHandler wraps the server under test: a span and a latency sample
// per request, by route.
type timedHandler struct {
	next http.Handler
	tr   *tracer

	mu      sync.Mutex
	byRoute map[string][]time.Duration
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	route := routeOf(req)
	sp := h.tr.start(req.Header.Get(idHeader), "sweepd "+route)
	h.next.ServeHTTP(w, req)
	d := sp.end()
	h.mu.Lock()
	h.byRoute[route] = append(h.byRoute[route], d)
	h.mu.Unlock()
}

// routeOf names the mux pattern a request of this benchmark matches.
func routeOf(req *http.Request) string {
	p := strings.TrimPrefix(req.URL.Path, "/api/v1")
	switch {
	case p == "/sweeps":
		return req.Method + " /sweeps"
	case strings.HasSuffix(p, "/events"):
		return "GET /sweeps/{id}/events"
	case strings.HasSuffix(p, "/results"):
		return "GET /sweeps/{id}/results"
	case strings.HasPrefix(p, "/results/"):
		return "GET /results/{key}"
	}
	return req.Method + " " + p
}

// setup is one set-up to the first accepted submission: cache open,
// server construction, listener, one spec POSTed and accepted. Start is
// left out: it only launches the claim goroutines, and the jobs they
// would pick up at once would have to be waited for afterwards.
func (sr *serviceRun) setup(id string, spec []byte) (cleanup func(), err error) {
	root := sr.r.tr.start(id, "setup")
	defer root.end()
	dir, err := sr.r.tempDir()
	if err != nil {
		return nil, err
	}
	cleanup = func() { os.RemoveAll(dir) }
	cache, err := sweep.OpenCache(dir)
	if err != nil {
		return cleanup, err
	}
	s := sr.serve(sr.r.tr, cache)
	cleanup = func() { s.stop(); os.RemoveAll(dir) }
	if _, _, ok := s.do(id, "POST /sweeps", http.MethodPost, "/api/v1/sweeps", spec); !ok {
		return cleanup, fmt.Errorf("submission not accepted")
	}
	return cleanup, nil
}

// serviceRun is one run of service_loopback.
type serviceRun struct {
	r      *run
	g      gridSize
	times  *storeTimes  // behind every traced service's store
	non2xx atomic.Int64 // replies outside 2xx, over the whole run

	specs  []*sweep.Spec
	bodies [][]byte // each spec as the JSON a client POSTs

	first  []sweep.JobResult  // the first cold round's results: what everything later must reproduce
	want   []outcome          // ... as outcomes, in job order
	byKey  map[string]outcome // ... and by key
	orders [][]string         // each read client's keys, in its seeded order

	cold, coldTraced []round         // cold rounds of plain and of traced cycles
	elapsed          [][]float64     // per plain cold round: JobResult.Elapsed of its jobs
	events           int             // SSE events of the first cold round
	warmRates        []float64       // jobs per second of each plain warm sample
	readRates        []float64       // reads per second of each plain read sample
	readLat          []time.Duration // client-side latencies of the traced read samples
	handlerD         []time.Duration // handler-side latencies of the same reads
	csvMS, jsonMS    float64         // fetching one round's results in each format
	warmChecked      bool            // checkWarm has run (once is enough: it is not timed)
}

func serviceWorkload(r *run, g gridSize) {
	sr := &serviceRun{r: r, g: g, times: &storeTimes{}}
	seed := r.rng.Uint64()
	var err error
	if sr.specs, sr.bodies, err = specBodies(g, seed); !r.opErr(err, "building the grid") {
		return
	}
	err = r.setUp(func(i int) (func(), error) {
		return sr.setup(fmt.Sprintf("setup-%d", i), sr.bodies[0])
	})
	if !r.opErr(err, "set-up") {
		return
	}
	// Warm-up rep: the grid at one load, submitted cold and once more warm.
	if _, wb, err := specBodies(g.shrunk(), seed); r.opErr(err, "warm-up grid") {
		if s, cleanup, ok := sr.fresh(nil); ok {
			s.round("warmup", wb)
			s.round("warmup", wb)
			cleanup()
		}
	}

	r.reps(2, sr.cycle)
	if len(sr.cold) == 0 {
		return
	}

	var coldS []float64
	for _, rd := range sr.cold {
		coldS = append(coldS, rd.complete.Seconds())
	}
	if r.tr == nil {
		r.set("unit_s", fastTime(coldS))
		r.set("work_per_s", fastRate(sr.readRates))
		return
	}
	var tracedS, submitMS, firstMS, overhead []float64
	for _, rd := range sr.coldTraced {
		tracedS = append(tracedS, rd.complete.Seconds())
	}
	for i, rd := range sr.cold {
		for _, d := range rd.submit {
			submitMS = append(submitMS, ms(d))
		}
		firstMS = append(firstMS, ms(rd.firstResult))
		overhead = append(overhead, overheadPct(rd.complete, g.workers, sr.elapsed[i]))
	}
	r.set("bench.trace_overhead_pct", pctOver(fastTime(tracedS), fastTime(coldS)))
	r.set("sweepd.submit_ms.p50", percentile(submitMS, 50))
	r.set("sweepd.first_result_ms", median(firstMS))
	r.set("sweepd.sched_overhead_pct", median(overhead))
	r.set("sweepd.warm_jobs_per_s", fastRate(sr.warmRates))
	r.set("sweepd.read_ms.p50", percentile(micros(sr.readLat), 50)/1e3)
	r.set("sweepd.read_ms.p99", percentile(micros(sr.readLat), 99)/1e3)
	r.set("sweepd.handler_us.p50", percentile(micros(sr.handlerD), 50))
	r.set("sweepd.handler_us.p99", percentile(micros(sr.handlerD), 99))
	r.set("sweepd.results_csv_ms", sr.csvMS)
	r.set("sweepd.results_json_ms", sr.jsonMS)
	r.set("sweepd.sse_events", float64(sr.events))
	r.set("sweepd.http_non2xx", float64(sr.non2xx.Load()))
	r.set("sweep.store_get_us.p50", percentile(micros(sr.times.hits), 50))
	r.set("sweep.store_get_us.p99", percentile(micros(sr.times.hits), 99))
	r.set("sweep.store_put_us.p50", percentile(micros(sr.times.puts), 50))
	r.set("sweep.store_put_us.p99", percentile(micros(sr.times.puts), 99))
	exportPerRow(r, sr.first)
}

// specBodies returns the grid's specs and each one as a POST body.
func specBodies(g gridSize, seed uint64) ([]*sweep.Spec, [][]byte, error) {
	specs, _, err := g.specs(seed)
	if err != nil {
		return nil, nil, err
	}
	bodies := make([][]byte, len(specs))
	for i, sp := range specs {
		if bodies[i], err = json.Marshal(sp); err != nil {
			return nil, nil, err
		}
	}
	return specs, bodies, nil
}

// fresh starts a server over an empty cache in a new scratch directory.
func (sr *serviceRun) fresh(tr *tracer) (s *service, cleanup func(), ok bool) {
	dir, err := sr.r.tempDir()
	if !sr.r.opErr(err, "scratch directory") {
		return nil, nil, false
	}
	cache, err := sweep.OpenCache(dir)
	if !sr.r.opErr(err, "opening a cache") {
		os.RemoveAll(dir)
		return nil, nil, false
	}
	s = sr.serve(tr, cache)
	s.srv.Start()
	return s, func() { s.stop(); os.RemoveAll(dir) }, true
}

// cycle is the life of one server: the grid submitted cold, then
// resubmitted warm for a quarter of the time the cold round took (every
// job a hit; one sample is warmRounds rounds), then read back by key for
// half of it (one sample is readChunk reads per client). The three
// alternate like this, rather than all cold rounds first, so that every
// metric samples the whole run and a slow stretch of the box cannot cover
// all of any. A traced cycle takes one warm and one read sample
// (thousands of requests, enough for the layer metrics).
func (sr *serviceRun) cycle(n int, tr *tracer) {
	r := sr.r
	s, cleanup, ok := sr.fresh(tr)
	if !ok {
		return
	}
	defer cleanup()
	tag := fmt.Sprintf("c%d", n)
	rd, ok := s.round(tag+"-cold", sr.bodies)
	if !ok {
		return
	}
	js, _, ok := s.results(tag+"-cold", rd, "json")
	if !ok {
		return
	}
	results, err := decodeResults(js)
	if !r.opErr(err, "decoding results") {
		return
	}
	r.op(rd.results == len(results), "cold round: %d SSE result events for %d jobs", rd.results, len(results))
	checkGrid(r, "cold round", results, false)
	if sr.first == nil {
		sr.first, sr.events = results, rd.events
		sr.planReads()
		r.checkRef(gridRef(results))
	} else {
		r.op(slices.Equal(outcomes(results), sr.want), "cold round %d produced different results than round 1", n)
	}
	if tr != nil {
		sr.coldTraced = append(sr.coldTraced, rd)
	} else {
		sr.cold = append(sr.cold, rd)
		var es []float64
		for _, jr := range results {
			es = append(es, jr.Elapsed)
		}
		sr.elapsed = append(sr.elapsed, es)
	}

	var last round
	start := time.Now()
	for sample := 0; sample == 0 || (tr == nil && time.Since(start) < rd.complete/4); sample++ {
		jobs := 0
		t0 := time.Now()
		for i := 0; i < sr.g.warmRounds; i++ {
			if last, ok = s.round(fmt.Sprintf("%s-warm-%d-%d", tag, sample, i), sr.bodies); !ok {
				return
			}
			r.op(last.results == len(sr.first), "warm round: %d SSE result events for %d jobs", last.results, len(sr.first))
			jobs += last.results
		}
		if tr == nil {
			sr.warmRates = append(sr.warmRates, float64(jobs)/time.Since(t0).Seconds())
		}
	}
	if tr == nil && !sr.warmChecked {
		sr.warmChecked = true
		sr.checkWarm(s, last)
	}

	start = time.Now()
	for sample := 0; sample == 0 || (tr == nil && time.Since(start) < rd.complete/2); sample++ {
		rate, lats := sr.readSample(s)
		if tr == nil {
			sr.readRates = append(sr.readRates, rate)
		} else {
			sr.readLat = append(sr.readLat, lats...)
		}
	}
	if s.h != nil {
		s.h.mu.Lock()
		sr.handlerD = append(sr.handlerD, s.h.byRoute["GET /results/{key}"]...)
		s.h.mu.Unlock()
	}
}

// checkWarm holds a warm round of a plain cycle to the output checks:
// its results are the cold ones, and the CSV the server streams is
// byte-equal to export.WriteSweepCSV of what the sweep pool returns for
// the same specs over the same store.
func (sr *serviceRun) checkWarm(s *service, warm round) {
	r := sr.r
	if js, d, ok := s.results("check", warm, "json"); ok {
		sr.jsonMS = ms(d)
		results, err := decodeResults(js)
		if r.opErr(err, "decoding warm results") {
			checkGrid(r, "warm round", results, true)
			r.op(slices.Equal(outcomes(results), sr.want), "warm results differ from cold")
		}
	}
	csvs, d, ok := s.results("check", warm, "csv")
	if !ok {
		return
	}
	sr.csvMS = ms(d)
	for i, spec := range sr.specs {
		jobs, err := spec.Expand()
		if !r.opErr(err, "expanding "+spec.Name) {
			continue
		}
		results, _, err := sweep.RunJobs(context.Background(), jobs, sweep.NewEnv(), sweep.Options{Workers: sr.g.workers, Store: s.cache})
		var buf bytes.Buffer
		if r.opErr(err, "pool pass over the service's store") && r.opErr(export.WriteSweepCSV(&buf, results), "WriteSweepCSV") {
			r.op(bytes.Equal(buf.Bytes(), csvs[i]), "%s: CSV served by sweepd differs from export.WriteSweepCSV of the pool's results", spec.Name)
		}
	}
}

// readClients is the width of the read loop: a closed loop, each client
// waits for its reply before sending the next request.
const readClients = 2

// planReads deals the grid's keys to the read clients -- disjoint halves,
// so that a key's span id is open on one request at a time -- each in
// its own seeded order.
func (sr *serviceRun) planReads() {
	sr.orders = make([][]string, readClients)
	for i, jr := range sr.first {
		sr.orders[i%readClients] = append(sr.orders[i%readClients], jr.Key)
	}
	for c, keys := range sr.orders {
		shuffled := make([]string, len(keys))
		for i, j := range stats.NewRNG(sr.r.rng.Uint64()).Perm(len(keys)) {
			shuffled[i] = keys[j]
		}
		sr.orders[c] = shuffled
	}
	sr.want = outcomes(sr.first)
	sr.byKey = make(map[string]outcome, len(sr.want))
	for _, o := range sr.want {
		sr.byKey[o.Key] = o
	}
}

// readSample has every client read readChunk entries by key and returns
// the reads per second over all clients and each read's latency.
func (sr *serviceRun) readSample(s *service) (rate float64, latencies []time.Duration) {
	r := sr.r
	var wg sync.WaitGroup
	lats := make([][]time.Duration, readClients)
	t0 := time.Now()
	for c := 0; c < readClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys := sr.orders[c]
			seen := make(map[string][]byte)
			for i := 0; i < sr.g.readChunk; i++ {
				key := keys[i%len(keys)]
				body, d, ok := s.do(keyID(key), "GET /results/{key}", http.MethodGet, "/api/v1/results/"+key, nil)
				if !ok {
					return
				}
				lats[c] = append(lats[c], d)
				if prev, ok := seen[key]; !ok {
					seen[key] = body
				} else if !bytes.Equal(prev, body) {
					r.op(false, "entry %s changed between two reads", keyID(key))
				}
			}
			// Each distinct entry is decoded once, after the reads, and
			// must be the cold result for its key.
			for key, body := range seen {
				var e sweep.Entry
				err := json.Unmarshal(body, &e)
				got := outcome{Key: key, Result: e.Result, Summary: summaryHash(e.Metrics)}
				r.op(err == nil && got == sr.byKey[key], "entry %s served by sweepd is not the cold result", keyID(key))
			}
		}()
	}
	wg.Wait()
	rate = float64(readClients*sr.g.readChunk) / time.Since(t0).Seconds()
	for _, l := range lats {
		latencies = append(latencies, l...)
	}
	return rate, latencies
}

// exportPerRow times the two streaming exporters directly, per result
// row: the part of a results request that is not HTTP.
func exportPerRow(r *run, results []sweep.JobResult) {
	const passes = 50
	rows := float64(passes * len(results))
	t0 := time.Now()
	for i := 0; i < passes; i++ {
		r.opErr(export.WriteSweepCSV(io.Discard, results), "WriteSweepCSV")
	}
	r.set("export.csv_us_per_row", us(time.Since(t0))/rows)
	t0 = time.Now()
	for i := 0; i < passes; i++ {
		st := export.NewSweepJSONLStream(io.Discard)
		for _, jr := range results {
			if err := st.Write(jr); err != nil {
				r.op(false, "SweepJSONLStream.Write: %v", err)
				return
			}
		}
	}
	r.set("export.jsonl_us_per_row", us(time.Since(t0))/rows)
}
