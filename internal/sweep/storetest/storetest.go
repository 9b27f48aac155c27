// Package storetest is the conformance suite for sweep.Store
// implementations. Both backends -- the local directory Cache and the
// RemoteStore speaking to a live sfsweepd -- run the identical suite, so
// the Store contract is pinned by tests rather than by comments: miss
// and hit behaviour, malformed-key rejection at the boundary (the
// key[:2] fan-out used to panic on short keys), foreign files staying
// out of the index, torn writes degrading to misses, concurrent writers
// surviving, a directory an older binary left lease files in, Raw
// answering only for documents shaped the way Put writes them, and
// reads following an entry file that is replaced, deleted or truncated
// behind the store's back.
package storetest

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"slimfly/internal/metrics"
	"slimfly/internal/scenario"
	"slimfly/internal/sim"
	"slimfly/internal/sweep"
)

// Plant writes raw bytes at a path relative to the store's backing cache
// directory, bypassing the Store API: the hook behind the corrupt-entry
// and foreign-file cases. Remote backends plant into the server's cache.
type Plant func(t *testing.T, relPath string, data []byte)

// Backend is one Store implementation under test. Open must return a
// fresh, empty store per call (and may register cleanups on t). OpenDir,
// when set, is used instead of Open: it returns a fresh, empty store and
// the directory its entry files live in, so the suite can also rename a
// file over an entry and delete one. With Open alone, the cases that
// need those are skipped.
type Backend struct {
	Open    func(t *testing.T) (sweep.Store, Plant)
	OpenDir func(t *testing.T) (sweep.Store, string)
}

// files reaches a store's entry files behind its back. dir is empty
// when the backend gives only a Plant.
type files struct {
	plant Plant
	dir   string
}

func (b Backend) open(t *testing.T) (sweep.Store, files) {
	t.Helper()
	if b.OpenDir == nil {
		s, plant := b.Open(t)
		return s, files{plant: plant}
	}
	s, dir := b.OpenDir(t)
	plant := func(t *testing.T, rel string, data []byte) {
		t.Helper()
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return s, files{plant: plant, dir: dir}
}

// path returns rel's path in the store's directory, skipping the test
// when the backend does not give one.
func (f files) path(t *testing.T, rel string) string {
	t.Helper()
	if f.dir == "" {
		t.Skip("the backend gives no directory to replace or delete files in")
	}
	return filepath.Join(f.dir, filepath.FromSlash(rel))
}

// replace writes data to a new file and renames it over rel: the path
// then names a new inode, as it does after a Put.
func (f files) replace(t *testing.T, rel string, data []byte) {
	t.Helper()
	path := f.path(t, rel)
	tmp := path + ".new"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

// remove deletes rel.
func (f files) remove(t *testing.T, rel string) {
	t.Helper()
	if err := os.Remove(f.path(t, rel)); err != nil {
		t.Fatal(err)
	}
}

// Key returns a distinct result key per seed: the content address of
// the job entry(seed) carries, so the suite's uploads are honest (a
// server refuses an entry put under another scenario's key).
func Key(seed int) string {
	return entry(seed).Job.Key()
}

// entry fabricates a distinguishable result entry, with a summary.
func entry(seed int) sweep.Entry {
	return sweep.Entry{
		Job: sweep.Job{
			Topo: sweep.TopoSpec{Kind: "SF", Q: 5}, Algo: "min",
			Pattern: "uniform", Load: float64(seed) / 100, Seed: 1,
		},
		Result: sim.Result{Delivered: int64(seed), AvgLatency: float64(seed) * 1.5, ActiveEnds: 50},
		Metrics: &metrics.Summary{
			Latency:  &metrics.LatencyStats{Count: int64(seed), Min: 3, Max: 9, Mean: 4.5, P50: 4, P95: 8, P99: 9},
			Channels: &metrics.ChannelStats{Loaded: 4, Total: 8, MaxUtil: 0.5, MeanUtil: 0.25, Hottest: []metrics.ChannelLoad{{Router: 1, Port: 2, Flits: 40, Util: 0.5}}},
		},
		Elapsed: 0.25,
	}
}

// roundTrip is what a Get of e must return: the decoding of the document
// Put writes for it.
func roundTrip(t *testing.T, e sweep.Entry) sweep.Entry {
	t.Helper()
	var got sweep.Entry
	if err := json.Unmarshal(stored(t, e), &got); err != nil {
		t.Fatal(err)
	}
	return got
}

// stored is the document Put writes for e: its indented encoding under
// the current format.
func stored(t *testing.T, e sweep.Entry) []byte {
	t.Helper()
	e.Format = scenario.CacheFormat
	data, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// Run executes the conformance suite against b.
func Run(t *testing.T, b Backend) {
	t.Run("MissThenHit", func(t *testing.T) {
		s, _ := b.open(t)
		key := Key(1)
		if _, ok := s.Get(key); ok {
			t.Fatal("Get on empty store reported a hit")
		}
		if _, ok := s.Raw(key); ok {
			t.Fatal("Raw on empty store reported a hit")
		}
		want := entry(1)
		if err := s.Put(key, want); err != nil {
			t.Fatalf("Put: %v", err)
		}
		got, ok := s.Get(key)
		if !ok {
			t.Fatal("Get missed a stored entry")
		}
		if got.Result != want.Result || got.Job.Load != want.Job.Load {
			t.Fatalf("roundtrip mismatch: got %+v want %+v", got.Result, want.Result)
		}
		doc, ok := s.Raw(key)
		if !ok {
			t.Fatal("Raw missed a stored entry")
		}
		var decoded sweep.Entry
		if err := json.Unmarshal(doc, &decoded); err != nil {
			t.Fatalf("Raw document does not decode: %v", err)
		}
		if !reflect.DeepEqual(decoded, got) {
			t.Fatalf("Raw document decodes to %+v, Get returned %+v", decoded, got)
		}
		keys := collectKeys(t, s)
		if len(keys) != 1 || keys[0] != key {
			t.Fatalf("Keys = %v, want exactly [%s]", keys, key)
		}
	})

	t.Run("MalformedKeys", func(t *testing.T) {
		s, _ := b.open(t)
		// "a" panicked the pre-Store cache (key[:2] of a 1-byte key);
		// the others pin the full shape check: length, case, charset,
		// and path metacharacters that must never reach a filesystem.
		bad := []string{"", "a", "ab", "zz" + strings.Repeat("a", 62),
			strings.Repeat("A", 64), "../" + strings.Repeat("a", 61)}
		for _, key := range bad {
			if _, ok := s.Get(key); ok {
				t.Errorf("Get(%q) reported a hit", key)
			}
			if _, ok := s.Raw(key); ok {
				t.Errorf("Raw(%q) reported a hit", key)
			}
			err := s.Put(key, entry(1))
			var ke *sweep.KeyError
			if !errors.As(err, &ke) {
				t.Errorf("Put(%q) = %v, want *KeyError", key, err)
			}
		}
	})

	t.Run("CorruptEntry", func(t *testing.T) {
		s, f := b.open(t)
		key := Key(3)
		f.plant(t, key[:2]+"/"+key+".json", []byte("{ torn wr"))
		if _, ok := s.Get(key); ok {
			t.Fatal("Get returned a corrupt entry as a hit")
		}
		// The slot must be writable again (local backends delete the
		// corpse on read).
		if err := s.Put(key, entry(3)); err != nil {
			t.Fatalf("Put over corrupt entry: %v", err)
		}
		if _, ok := s.Get(key); !ok {
			t.Fatal("Get missed the rewritten entry")
		}
	})

	t.Run("ForeignFiles", func(t *testing.T) {
		s, f := b.open(t)
		key := Key(4)
		if err := s.Put(key, entry(4)); err != nil {
			t.Fatalf("Put: %v", err)
		}
		// Files that look almost like entries: wrong basename shape,
		// wrong case, stray artifacts. None may surface in Keys (they
		// used to, and then 404'd on fetch).
		f.plant(t, "results.json", []byte("{}"))
		f.plant(t, "ab/notes.json", []byte("{}"))
		f.plant(t, "ab/"+strings.Repeat("A", 64)+".json", []byte("{}"))
		f.plant(t, "ab/short.json", []byte("{}"))
		// Copies of the entry itself where no read looks for it: at
		// the root, and under another key's fan-out directory. Get and
		// Raw miss both, so Keys must not list them either.
		doc, ok := s.Raw(key)
		if !ok {
			t.Fatal("Raw missed a stored entry")
		}
		other := "00"
		if key[:2] == other {
			other = "ff"
		}
		f.plant(t, key+".json", doc)
		f.plant(t, other+"/"+key+".json", doc)
		keys := collectKeys(t, s)
		if len(keys) != 1 || keys[0] != key {
			t.Fatalf("Keys = %v, want exactly [%s]", keys, key)
		}
	})

	t.Run("ConcurrentPut", func(t *testing.T) {
		s, _ := b.open(t)
		key := Key(5)
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := s.Put(key, entry(5)); err != nil {
					t.Errorf("concurrent Put: %v", err)
				}
			}(i)
		}
		wg.Wait()
		got, ok := s.Get(key)
		if !ok {
			t.Fatal("Get missed after concurrent Puts")
		}
		if got.Result != entry(5).Result {
			t.Fatalf("survivor is not a complete entry: %+v", got.Result)
		}
	})

	t.Run("StaleLeaseDir", func(t *testing.T) {
		// A cache directory an older binary used also holds a leases/
		// subtree. It is not the store's: the entries beside it list
		// and read as if it were absent.
		s, f := b.open(t)
		key, held := Key(6), Key(7)
		f.plant(t, "leases/"+held+".lease", []byte(`{"id":"ls-00","key":"`+held+`","owner":"old","expires":"2020-01-01T00:00:00Z"}`))
		f.plant(t, "leases/lease-123456.tmp", []byte(`{"id":`))
		if err := s.Put(key, entry(6)); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if _, ok := s.Get(key); !ok {
			t.Fatal("Get missed the stored entry")
		}
		if _, ok := s.Get(held); ok {
			t.Fatal("Get reported a lease file as an entry")
		}
		keys := collectKeys(t, s)
		if len(keys) != 1 || keys[0] != key {
			t.Fatalf("Keys = %v, want exactly [%s]", keys, key)
		}
	})

	t.Run("RawShape", func(t *testing.T) {
		// Raw answers only for a document shaped the way Put writes it.
		// Each of these is a miss for Raw, and Raw leaves it where it
		// is: Get then answers as it does on a store Raw never saw.
		s, _ := b.open(t)
		key := Key(8)
		if err := s.Put(key, entry(8)); err != nil {
			t.Fatalf("Put: %v", err)
		}
		doc, ok := s.Raw(key)
		if !ok {
			t.Fatal("Raw missed a stored entry")
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, doc); err != nil {
			t.Fatal(err)
		}
		format := []byte(`"` + scenario.CacheFormat + `"`)
		for _, c := range []struct {
			name    string
			data    []byte
			getMiss bool // Get's own contract: a miss whatever Raw did
		}{
			{"Truncated", doc[:len(doc)/2], true},
			{"WrongFormat", bytes.Replace(doc, format, []byte(`"slimfly-sweep-v1"`), 1), true},
			{"Compact", compact.Bytes(), false},
		} {
			t.Run(c.name, func(t *testing.T) {
				path := key[:2] + "/" + key + ".json"
				probed, f := b.open(t)
				f.plant(t, path, c.data)
				if _, ok := probed.Raw(key); ok {
					t.Fatal("Raw reported a hit")
				}
				control, fc := b.open(t)
				fc.plant(t, path, c.data)
				_, want := control.Get(key)
				if _, got := probed.Get(key); got != want || (c.getMiss && got) {
					t.Fatalf("Get after Raw hit=%v, Get alone hit=%v (must miss: %v)", got, want, c.getMiss)
				}
			})
		}
	})

	t.Run("MemoFollowsFile", func(t *testing.T) {
		// A store may keep what it has read (Cache memoises documents),
		// but every read answers for the file as it is now. Each case
		// reads the entry twice, so a second read can be served from
		// whatever the first one kept, and then changes the file.
		key := Key(9)
		first, second := entry(9), entry(9)
		second.Result.Delivered++
		second.Elapsed = 0.75 // same length as 0.25: only the inode tells
		second.Metrics.Latency.P50 = 5
		path := key[:2] + "/" + key + ".json"
		warm := func(t *testing.T, s sweep.Store, e sweep.Entry) {
			t.Helper()
			want, wantEntry := stored(t, e), roundTrip(t, e)
			for i := 0; i < 2; i++ {
				doc, ok := s.Raw(key)
				if !ok || !bytes.Equal(doc, want) {
					t.Fatalf("Raw = %q, %v; want the stored document", doc, ok)
				}
				got, ok := s.Get(key)
				if !ok || !reflect.DeepEqual(got, wantEntry) {
					gotDoc, _ := json.Marshal(got)
					wantDoc, _ := json.Marshal(wantEntry)
					t.Fatalf("Get = %s, %v; want %s", gotDoc, ok, wantDoc)
				}
			}
		}
		put := func(t *testing.T, s sweep.Store, e sweep.Entry) {
			t.Helper()
			if err := s.Put(key, e); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}
		t.Run("Renamed", func(t *testing.T) {
			s, f := b.open(t)
			put(t, s, first)
			warm(t, s, first)
			f.replace(t, path, stored(t, second))
			warm(t, s, second)
		})
		t.Run("Removed", func(t *testing.T) {
			s, f := b.open(t)
			put(t, s, first)
			warm(t, s, first)
			f.remove(t, path)
			if _, ok := s.Raw(key); ok {
				t.Fatal("Raw reported a hit for a deleted file")
			}
			if _, ok := s.Get(key); ok {
				t.Fatal("Get reported a hit for a deleted file")
			}
		})
		t.Run("Truncated", func(t *testing.T) {
			s, f := b.open(t)
			put(t, s, first)
			warm(t, s, first)
			doc := stored(t, first)
			f.plant(t, path, doc[:len(doc)/2])
			if _, ok := s.Raw(key); ok {
				t.Fatal("Raw reported a hit for a truncated file")
			}
			if _, ok := s.Get(key); ok {
				t.Fatal("Get reported a hit for a truncated file")
			}
			put(t, s, second)
			warm(t, s, second)
		})
		t.Run("PutOver", func(t *testing.T) {
			s, _ := b.open(t)
			put(t, s, first)
			warm(t, s, first)
			put(t, s, second)
			warm(t, s, second)
		})
	})
}

// Count counts the keys s yields, failing t on a listing error.
func Count(t *testing.T, s sweep.Store) int { return len(collectKeys(t, s)) }

func collectKeys(t *testing.T, s sweep.Store) []string {
	t.Helper()
	var keys []string
	for k, err := range s.Keys() {
		if err != nil {
			t.Fatalf("Keys: %v", err)
		}
		keys = append(keys, k)
	}
	return keys
}
