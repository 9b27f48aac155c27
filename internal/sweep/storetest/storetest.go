// Package storetest is the conformance suite for sweep.Store
// implementations. Both backends -- the local directory Cache and the
// RemoteStore speaking to a live sfsweepd -- run the identical suite, so
// the Store contract is pinned by tests rather than by comments: miss
// and hit behaviour, malformed-key rejection at the boundary (the
// key[:2] fan-out used to panic on short keys), foreign files staying
// out of the index, torn writes degrading to misses, concurrent writers
// surviving, and a directory an older binary left lease files in.
package storetest

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

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

// Key returns a distinct well-formed (64-hex) result key per seed. The
// keys are synthetic: conformance exercises the store contract, not the
// hash function (TestKeyStability pins that separately).
func Key(seed int) string {
	return fmt.Sprintf("%064x", uint64(seed)+1)
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
		if s.Has(key) {
			t.Fatal("Has on empty store reported presence")
		}
		want := entry(1)
		if err := s.Put(key, want); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if !s.Has(key) {
			t.Fatal("Has missed a stored entry")
		}
		got, ok := s.Get(key)
		if !ok {
			t.Fatal("Get missed a stored entry")
		}
		if got.Result != want.Result || got.Job.Load != want.Job.Load {
			t.Fatalf("roundtrip mismatch: got %+v want %+v", got.Result, want.Result)
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
			if s.Has(key) {
				t.Errorf("Has(%q) reported presence", key)
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
		if s.Has(held) {
			t.Fatal("Has reported a lease file as an entry")
		}
		keys := collectKeys(t, s)
		if len(keys) != 1 || keys[0] != key {
			t.Fatalf("Keys = %v, want exactly [%s]", keys, key)
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
