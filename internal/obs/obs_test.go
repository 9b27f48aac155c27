package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestInstrumentsAndSnapshot(t *testing.T) {
	c := NewCounter("test.counter")
	for range 5 {
		c.Inc()
	}
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if NewCounter("test.counter") != c {
		t.Error("NewCounter did not return the registered instance")
	}

	g := NewGauge("test.gauge")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Errorf("gauge = %d, want 4", g.Value())
	}

	tm := NewTimer("test.timer")
	tm.Observe(10 * time.Millisecond)
	tm.Observe(30 * time.Millisecond)
	st := tm.Stats()
	if st.Count != 2 || st.TotalNS != int64(40*time.Millisecond) ||
		st.MaxNS != int64(30*time.Millisecond) || st.AvgNS != int64(20*time.Millisecond) {
		t.Errorf("timer stats = %+v", st)
	}
	sp := tm.Start()
	if sp.End() < 0 {
		t.Error("span duration negative")
	}
	if n := tm.Stats().Count; n != 3 {
		t.Errorf("span not recorded: count %d", n)
	}

	Publish("test.computed", func() any { return map[string]int{"x": 1} })

	snap := Snapshot()
	if snap["test.counter"] != int64(5) || snap["test.gauge"] != int64(4) {
		t.Errorf("snapshot = %v", snap)
	}
	if _, ok := snap["test.timer"].(TimerStats); !ok {
		t.Errorf("timer snapshot kind: %T", snap["test.timer"])
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Errorf("snapshot not marshalable: %v", err)
	}
}

func TestKindClashPanics(t *testing.T) {
	NewCounter("test.clash")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	NewGauge("test.clash")
}

// TestZeroValueUsable pins the embedding contract Progress relies on:
// unregistered zero-value instruments work standalone.
func TestZeroValueUsable(t *testing.T) {
	var c Counter
	var g Gauge
	var tm Timer
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Inc()
				g.Add(1)
				tm.Observe(time.Duration(j))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 800 || g.Value() != 800 || tm.Stats().Count != 800 {
		t.Errorf("concurrent updates lost: %d %d %d", c.Value(), g.Value(), tm.Stats().Count)
	}
	if tm.Stats().MaxNS != 99 {
		t.Errorf("max = %d, want 99", tm.Stats().MaxNS)
	}
}

func TestServeDebug(t *testing.T) {
	NewCounter("test.served").Inc()
	d, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + d.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	vars := get("/debug/vars")
	if !json.Valid([]byte(vars)) {
		t.Error("/debug/vars is not valid JSON")
	}
	var all map[string]json.RawMessage
	if err := json.Unmarshal([]byte(vars), &all); err != nil {
		t.Fatal(err)
	}
	if _, ok := all["slimfly"]; !ok {
		t.Error("/debug/vars missing the slimfly instrument map")
	}
	if !strings.Contains(string(all["slimfly"]), `"test.served":1`) {
		t.Errorf("slimfly map missing registered counter: %s", all["slimfly"])
	}

	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Error("/debug/pprof/ index missing profiles")
	}
	get("/debug/pprof/cmdline")
}

// TestDebugHandler: the handler tree mounts on a caller-owned mux (the
// sfsweepd pattern) and serves the same surfaces as the standalone
// listener.
func TestDebugHandler(t *testing.T) {
	NewCounter("test.mounted").Inc()
	mux := http.NewServeMux()
	mux.Handle("/debug/", DebugHandler())
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !json.Valid(body) {
		t.Fatalf("GET /debug/vars: status %d, valid-json %v", resp.StatusCode, json.Valid(body))
	}
	if !strings.Contains(string(body), `"test.mounted":1`) {
		t.Errorf("mounted handler missing registered counter: %s", body)
	}
	pp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/: status %d", pp.StatusCode)
	}
}
