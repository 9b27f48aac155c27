package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slimfly/internal/metrics"
	"slimfly/internal/scenario"
	"slimfly/internal/sim"
)

func testJob() Job {
	return Job{
		Topo: TopoSpec{Kind: "SF", Q: 5}, Algo: "min", Pattern: "uniform",
		Load: 0.3, Seed: 7,
		Sim: SimParams{Warmup: 50, Measure: 100, Drain: 500},
	}
}

// TestKeyStability pins the content address of a fixed job. If this test
// fails, the job encoding (or the cache format version) changed and every
// existing cache entry is invalidated -- which must be a deliberate,
// version-bumped decision, not an accident. (Last bump:
// slimfly-sweep-v2, when entries grew the optional metrics payload.)
func TestKeyStability(t *testing.T) {
	const want = "2d112f855ab75aa4ce20cd780862e66aaa887d9e3a78e7144e083ababac3c14b"
	if got := testJob().Key(); got != want {
		t.Errorf("Key() = %s, want %s (job encoding changed: bump cacheFormat)", got, want)
	}
}

// TestKeyEquivalence: independently constructed jobs with equal fields
// share a key; any differing axis value changes it.
func TestKeyEquivalence(t *testing.T) {
	a, b := testJob(), testJob()
	if a.Key() != b.Key() {
		t.Fatal("equal jobs produced different keys")
	}
	seen := map[string]string{a.Key(): "base"}
	variants := map[string]Job{}
	v := testJob()
	v.Load = 0.4
	variants["load"] = v
	v = testJob()
	v.Seed = 8
	variants["seed"] = v
	v = testJob()
	v.Algo = "val"
	variants["algo"] = v
	v = testJob()
	v.Pattern = "shift"
	variants["pattern"] = v
	v = testJob()
	v.Topo.Q = 7
	variants["topo"] = v
	v = testJob()
	v.Sim.BufPerPort = 32
	variants["sim-params"] = v
	for name, j := range variants {
		k := j.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %q collides with %q", name, prev)
		}
		seen[k] = name
	}
}

func TestCacheHitMiss(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := testJob()
	key := j.Key()
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	want := Entry{Job: j, Result: sim.Result{AvgLatency: 12.5, Delivered: 99}, Elapsed: 0.25}
	if err := c.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	if got.Result != want.Result || got.Job != want.Job {
		t.Errorf("Get = %+v, want %+v", got, want)
	}
	if got.Format != scenario.CacheFormat {
		t.Errorf("stored format %q, want %q", got.Format, scenario.CacheFormat)
	}
	if _, ok := c.Get(testJobWithLoad(0.9).Key()); ok {
		t.Error("hit for a job never stored")
	}
}

func testJobWithLoad(l float64) Job {
	j := testJob()
	j.Load = l
	return j
}

// TestCacheConcurrentWriters hammers one cache with racing writers on both
// shared and distinct keys, then verifies every key reads back complete.
func TestCacheConcurrentWriters(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	const keys = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				j := testJobWithLoad(float64(i+1) / 10)
				e := Entry{Job: j, Result: sim.Result{Delivered: int64(i)}}
				if err := c.Put(j.Key(), e); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if got, ok := c.Get(j.Key()); ok && got.Result.Delivered != int64(i) {
					t.Errorf("worker %d: torn read: %+v", w, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < keys; i++ {
		j := testJobWithLoad(float64(i+1) / 10)
		got, ok := c.Get(j.Key())
		if !ok {
			t.Fatalf("key %d missing after concurrent writes", i)
		}
		if got.Result.Delivered != int64(i) {
			t.Errorf("key %d: Delivered = %d, want %d", i, got.Result.Delivered, i)
		}
	}
	// No stray temp files left behind.
	matches, _ := filepath.Glob(filepath.Join(c.Dir(), "put-*.tmp"))
	if len(matches) != 0 {
		t.Errorf("leftover temp files: %v", matches)
	}
}

// TestCacheCorruptEntry: a torn or garbage entry is treated as a miss,
// removed, and cleanly replaceable.
func TestCacheCorruptEntry(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := testJob()
	key := j.Key()
	if err := c.Put(key, Entry{Job: j, Result: sim.Result{Delivered: 1}}); err != nil {
		t.Fatal(err)
	}
	path := c.path(key)
	for _, corrupt := range [][]byte{
		[]byte("{truncated"),
		[]byte("not json at all"),
		[]byte(`{"format":"some-other-format","job":{},"result":{}}`),
	} {
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(key); ok {
			t.Fatalf("hit on corrupt entry %q", corrupt)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("corrupt entry %q not removed", corrupt)
		}
		// The slot is reusable after recovery.
		if err := c.Put(key, Entry{Job: j, Result: sim.Result{Delivered: 2}}); err != nil {
			t.Fatal(err)
		}
		got, ok := c.Get(key)
		if !ok || got.Result.Delivered != 2 {
			t.Fatalf("cache unusable after corrupt-entry recovery: %+v ok=%v", got, ok)
		}
	}
}

// storedCount counts the keys s yields.
func storedCount(t *testing.T, s Store) int {
	t.Helper()
	n := 0
	for _, err := range s.Keys() {
		if err != nil {
			t.Fatalf("Keys: %v", err)
		}
		n++
	}
	return n
}

func TestCacheKeys(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if n := storedCount(t, c); n != 0 {
		t.Fatalf("empty cache holds %d keys", n)
	}
	keys := make(map[string]bool)
	for i := 0; i < 5; i++ {
		j := testJobWithLoad(float64(i+1) / 10)
		if err := c.Put(j.Key(), Entry{Job: j}); err != nil {
			t.Fatal(err)
		}
		keys[j.Key()] = true
	}
	// Keys yields exactly the stored keys, each once, with no error.
	seen := 0
	for k, err := range c.Keys() {
		if err != nil {
			t.Fatalf("Keys error: %v", err)
		}
		if !keys[k] {
			t.Errorf("Keys yielded unknown key %q", k)
		}
		seen++
	}
	if seen != 5 {
		t.Errorf("Keys yielded %d keys, want 5", seen)
	}
	// Early break must not panic or keep walking.
	for range c.Keys() {
		break
	}
}

// TestCacheReopen: a second Cache over the same directory (a later
// process) sees earlier entries -- the property resume is built on.
func TestCacheReopen(t *testing.T) {
	dir := t.TempDir()
	c1, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	j := testJob()
	if err := c1.Put(j.Key(), Entry{Job: j, Result: sim.Result{Delivered: 42}}); err != nil {
		t.Fatal(err)
	}
	// The earlier process may have been an older binary that kept lease
	// files in the directory; they are no obstacle and no entry.
	stale := filepath.Join(dir, "leases", "lease-123456.tmp")
	if err := os.MkdirAll(filepath.Dir(stale), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{stale, filepath.Join(dir, "leases", j.Key()+".lease")} {
		if err := os.WriteFile(path, []byte(`{"id":`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	aged := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(stale, aged, aged); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(j.Key())
	if !ok || got.Result.Delivered != 42 {
		t.Fatalf("reopened cache: %+v ok=%v", got, ok)
	}
	if n := storedCount(t, c2); n != 1 {
		t.Fatalf("reopened cache holds %d keys, want 1", n)
	}
}

// TestCacheFanout: entries spread across the two-hex-digit subdirectories.
func TestCacheFanout(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dirs := map[string]bool{}
	for i := 0; i < 32; i++ {
		j := testJobWithLoad(float64(i) / 100)
		if err := c.Put(j.Key(), Entry{Job: j}); err != nil {
			t.Fatal(err)
		}
		dirs[j.Key()[:2]] = true
	}
	if len(dirs) < 2 {
		t.Skip("improbable: all 32 hashes share a prefix")
	}
	for d := range dirs {
		if _, err := os.Stat(filepath.Join(c.Dir(), d)); err != nil {
			t.Errorf("fanout dir %s: %v", d, err)
		}
	}
}

// TestCachePath: an entry's path, built by concatenation from the root
// OpenCache cleaned, is the one filepath.Join spells from the directory
// as given; Dir still returns it as given.
func TestCachePath(t *testing.T) {
	t.Chdir(t.TempDir())
	key := testJob().Key()
	for _, dir := range []string{"rel", "slash/", "./a/../b", ".", filepath.Join(t.TempDir(), "abs")} {
		c, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := c.path(key), filepath.Join(dir, key[:2], key+".json"); got != want {
			t.Errorf("OpenCache(%q): path = %q, want %q", dir, got, want)
		}
		if c.Dir() != dir {
			t.Errorf("OpenCache(%q).Dir() = %q", dir, c.Dir())
		}
	}
}

// TestKeyRepeatable guards against key dependence on map iteration or
// other in-process nondeterminism.
func TestKeyRepeatable(t *testing.T) {
	j := testJob()
	k := j.Key()
	for i := 0; i < 100; i++ {
		if got := j.Key(); got != k {
			t.Fatalf("Key unstable: %s then %s", k, got)
		}
	}
}

// slotKeys returns n valid keys that share one memo slot: the same first
// three hex digits, the rest differing.
func slotKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("abc%061x", i+1)
	}
	return keys
}

// storedDoc is the document Put writes for e.
func storedDoc(t *testing.T, e Entry) []byte {
	t.Helper()
	e.Format = scenario.CacheFormat
	data, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCacheReadsOnce: the first read of an entry reads its file, every
// later one is served from the memo after a stat, for Raw and Get alike;
// the first Get decodes the document and later ones decode nothing; and
// opening a cache allocates no memo.
func TestCacheReadsOnce(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.memo.Load() != nil {
		t.Fatal("OpenCache allocated the read memo")
	}
	j := testJob()
	key := j.Key()
	e := Entry{Job: j, Result: sim.Result{Delivered: 5}}
	if err := c.Put(key, e); err != nil {
		t.Fatal(err)
	}
	count := func(what string, reads, hits, decodes int64, read func()) {
		t.Helper()
		r, h, d := obsFileReads.Value(), obsMemoHits.Value(), obsDecodes.Value()
		read()
		if got := obsFileReads.Value() - r; got != reads {
			t.Errorf("%s read the file %d times, want %d", what, got, reads)
		}
		if got := obsMemoHits.Value() - h; got != hits {
			t.Errorf("%s hit the memo %d times, want %d", what, got, hits)
		}
		if got := obsDecodes.Value() - d; got != decodes {
			t.Errorf("%s decoded %d times, want %d", what, got, decodes)
		}
	}
	get := func(c *Cache) {
		t.Helper()
		if got, ok := c.Get(key); !ok || got.Result != e.Result {
			t.Fatalf("Get = %+v, %v", got.Result, ok)
		}
	}
	count("three Raws and a Get", 1, 3, 1, func() {
		for i := 0; i < 3; i++ {
			if doc, ok := c.Raw(key); !ok || !bytes.Equal(doc, storedDoc(t, e)) {
				t.Fatalf("Raw = %q, %v", doc, ok)
			}
		}
		get(c)
	})
	reopened, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	count("four Gets", 1, 3, 1, func() {
		for i := 0; i < 4; i++ {
			get(reopened)
		}
	})
}

// TestCacheGetRemovesTruncatedMemoised: an entry truncated in place
// after it was memoised is a miss for Raw, and Get deletes it, as it
// does any corrupt entry.
func TestCacheGetRemovesTruncatedMemoised(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := testJob()
	key := j.Key()
	if err := c.Put(key, Entry{Job: j}); err != nil {
		t.Fatal(err)
	}
	doc, ok := c.Raw(key)
	if !ok {
		t.Fatal("Raw missed a stored entry")
	}
	if err := os.WriteFile(c.path(key), doc[:len(doc)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Raw(key); ok {
		t.Fatal("Raw reported a hit for a truncated entry")
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("Get reported a hit for a truncated entry")
	}
	if _, err := os.Stat(c.path(key)); !os.IsNotExist(err) {
		t.Fatalf("Get left the truncated entry in place: %v", err)
	}
}

// TestCacheMemoRace: 8 goroutines interleave Raw, Get and Put on four
// keys that share one memo slot. Every document read is one that was
// put under that key, and once they stop, every read agrees with the
// file on disk. Run it under -race.
func TestCacheMemoRace(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const versions, rounds = 8, 150
	keys := slotKeys(4)
	entry := func(k, v int) Entry {
		return Entry{Job: testJob(), Result: sim.Result{Delivered: int64(1000*k + v)},
			Metrics: &metrics.Summary{Latency: &metrics.LatencyStats{Count: int64(1000*k + v)}}}
	}
	owner := map[string]int{} // document -> index of the key it was put under
	for k := range keys {
		for v := 0; v < versions; v++ {
			owner[string(storedDoc(t, entry(k, v)))] = k
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (g + i) % len(keys)
				if err := c.Put(keys[g%len(keys)], entry(g%len(keys), (g+i)%versions)); err != nil {
					t.Error(err)
					return
				}
				if doc, ok := c.Raw(keys[k]); ok {
					if o, known := owner[string(doc)]; !known || o != k {
						t.Errorf("Raw(%s) returned a document never put under it", keys[k])
						return
					}
				}
				if e, ok := c.Get(keys[k]); ok {
					d := e.Result.Delivered
					if d/1000 != int64(k) {
						t.Errorf("Get(%s) returned an entry put under key %d", keys[k], d/1000)
						return
					}
					if want := entry(k, int(d%1000)).Metrics; !reflect.DeepEqual(e.Metrics, want) {
						got, _ := json.Marshal(e.Metrics)
						t.Errorf("Get(%s) returned version %d with summary %s", keys[k], d%1000, got)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, key := range keys {
		file, err := os.ReadFile(c.path(key))
		if err != nil {
			t.Fatal(err)
		}
		if doc, ok := c.Raw(key); !ok || !bytes.Equal(doc, file) {
			t.Errorf("Raw(%s) = %q, %v; the file holds %q", key, doc, ok, file)
		}
	}
}

// TestCacheMemoReadAcrossRename: a read whose file is renamed over while
// it runs must not be memoised as the new file. A reader alternates two
// keys that share a slot, so each of its reads goes to disk, while Put
// replaces one of them; once both stop, Raw must return what Put wrote.
// An identity taken from the path after the read, instead of from the
// handle before it, pairs the old bytes with the new file here.
func TestCacheMemoReadAcrossRename(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := slotKeys(2)
	if err := c.Put(keys[1], Entry{Job: testJob()}); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		older := Entry{Job: testJob(), Result: sim.Result{Delivered: int64(2 * trial)}}
		newer := Entry{Job: testJob(), Result: sim.Result{Delivered: int64(2*trial + 1)}}
		if err := c.Put(keys[0], older); err != nil {
			t.Fatal(err)
		}
		var done atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				c.Raw(keys[1])
				c.Raw(keys[0])
			}
		}()
		if err := c.Put(keys[0], newer); err != nil {
			t.Fatal(err)
		}
		done.Store(true)
		wg.Wait()
		if doc, ok := c.Raw(keys[0]); !ok || !bytes.Equal(doc, storedDoc(t, newer)) {
			t.Fatalf("trial %d: Raw after the last Put = %q, %v; want what it wrote", trial, doc, ok)
		}
	}
}
