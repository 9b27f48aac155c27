// Package storetest is the conformance suite for sweep.Store
// implementations. Both backends -- the local directory Cache and the
// RemoteStore speaking to a live sfsweepd -- run the identical suite, so
// the Store contract is pinned by tests rather than by comments: miss
// and hit behaviour, malformed-key rejection at the boundary (the
// key[:2] fan-out used to panic on short keys), foreign files staying
// out of the index, torn writes degrading to misses, concurrent writers
// surviving, a directory an older binary left lease files in, and Raw
// answering only for documents shaped the way Put writes them.
package storetest

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"slimfly/internal/scenario"
	"slimfly/internal/sim"
	"slimfly/internal/sweep"
)

// Plant writes raw bytes at a path relative to the store's backing cache
// directory, bypassing the Store API: the hook behind the corrupt-entry
// and foreign-file cases. Remote backends plant into the server's cache.
type Plant func(t *testing.T, relPath string, data []byte)

// Backend is one Store implementation under test. Open must return a
// fresh, empty store per call (and may register cleanups on t).
type Backend struct {
	Open func(t *testing.T) (sweep.Store, Plant)
}

// Key returns a distinct result key per seed: the content address of
// the job entry(seed) carries, so the suite's uploads are honest (a
// server refuses an entry put under another scenario's key).
func Key(seed int) string {
	return entry(seed).Job.Key()
}

// entry fabricates a distinguishable result entry.
func entry(seed int) sweep.Entry {
	return sweep.Entry{
		Job: sweep.Job{
			Topo: sweep.TopoSpec{Kind: "SF", Q: 5}, Algo: "min",
			Pattern: "uniform", Load: float64(seed) / 100, Seed: 1,
		},
		Result:  sim.Result{Delivered: int64(seed), AvgLatency: float64(seed) * 1.5, ActiveEnds: 50},
		Elapsed: 0.25,
	}
}

// Run executes the conformance suite against b.
func Run(t *testing.T, b Backend) {
	t.Run("MissThenHit", func(t *testing.T) {
		s, _ := b.Open(t)
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
		s, _ := b.Open(t)
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
		s, plant := b.Open(t)
		key := Key(3)
		plant(t, key[:2]+"/"+key+".json", []byte("{ torn wr"))
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
		s, plant := b.Open(t)
		key := Key(4)
		if err := s.Put(key, entry(4)); err != nil {
			t.Fatalf("Put: %v", err)
		}
		// Files that look almost like entries: wrong basename shape,
		// wrong case, stray artifacts. None may surface in Keys (they
		// used to, and then 404'd on fetch).
		plant(t, "results.json", []byte("{}"))
		plant(t, "ab/notes.json", []byte("{}"))
		plant(t, "ab/"+strings.Repeat("A", 64)+".json", []byte("{}"))
		plant(t, "ab/short.json", []byte("{}"))
		keys := collectKeys(t, s)
		if len(keys) != 1 || keys[0] != key {
			t.Fatalf("Keys = %v, want exactly [%s]", keys, key)
		}
	})

	t.Run("ConcurrentPut", func(t *testing.T) {
		s, _ := b.Open(t)
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
		s, plant := b.Open(t)
		key, held := Key(6), Key(7)
		plant(t, "leases/"+held+".lease", []byte(`{"id":"ls-00","key":"`+held+`","owner":"old","expires":"2020-01-01T00:00:00Z"}`))
		plant(t, "leases/lease-123456.tmp", []byte(`{"id":`))
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
		s, _ := b.Open(t)
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
				probed, plant := b.Open(t)
				plant(t, path, c.data)
				if _, ok := probed.Raw(key); ok {
					t.Fatal("Raw reported a hit")
				}
				control, plantControl := b.Open(t)
				plantControl(t, path, c.data)
				_, want := control.Get(key)
				if _, got := probed.Get(key); got != want || (c.getMiss && got) {
					t.Fatalf("Get after Raw hit=%v, Get alone hit=%v (must miss: %v)", got, want, c.getMiss)
				}
			})
		}
	})
}

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
