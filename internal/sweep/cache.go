package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"iter"
	"os"
	"path/filepath"
	"strings"
	"time"

	"slimfly/internal/metrics"
	"slimfly/internal/scenario"
	"slimfly/internal/sim"
)

// Entry is one cached simulation result, stored as indented JSON at
// <dir>/<key[:2]>/<key>.json. The job is stored alongside the result so a
// cache directory is self-describing (inspectable and re-exportable
// without the original spec). Jobs whose SimParams request collectors
// carry the structured metrics summary too; the collector selection is
// part of the job key, so an entry always holds exactly the payload its
// job asked for (the slimfly-sweep-v2 format bump keeps pre-pipeline
// Result-only entries from being misread as summary-bearing ones).
type Entry struct {
	Format  string           `json:"format"` // cacheFormat at write time
	Job     Job              `json:"job"`
	Result  sim.Result       `json:"result"`
	Metrics *metrics.Summary `json:"metrics,omitempty"`
	Elapsed float64          `json:"elapsed_seconds"` // execution wall time (not cached reads)
	Created time.Time        `json:"created"`
}

// Cache is the local directory-backed Store. Writes are atomic (unique
// temp file + rename), so concurrent writers -- even across processes --
// can race on the same key and the survivor is always a complete entry.
// Unreadable or corrupt entries are deleted on read (by Get) and
// reported as misses, so a torn write from a killed sweep costs one
// recomputation, not a crash. Keys that are not 64 hex digits never
// reach the filesystem: Get/Has/Raw miss, Put returns a *KeyError (it
// used to panic the key[:2] path fan-out).
//
// Raw is stricter than Get: it accepts only a document shaped the way
// Put writes it (isStored). A file Get would decode but Put never
// writes -- compact JSON planted by hand, say -- is a hit for Get and a
// miss for Raw, so sfsweepd answers 404 for it.
type Cache struct {
	dir string
}

// Cache is the default Store backend.
var _ Store = (*Cache)(nil)

// OpenCache opens (creating if needed) a cache rooted at dir. Orphaned
// temp files from writers killed mid-Put are swept on open, so repeated
// interrupt/resume cycles cannot accumulate garbage.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: opening cache: %w", err)
	}
	// Best effort: a dir that Glob cannot parse as a pattern skips the sweep.
	orphans, _ := filepath.Glob(filepath.Join(dir, "put-*.tmp"))
	for _, o := range orphans {
		// Age-gate the sweep so a concurrent process mid-write (its
		// temp file is seconds old) is left alone.
		if info, err := os.Stat(o); err == nil && time.Since(info.ModTime()) > time.Hour {
			os.Remove(o)
		}
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache root directory.
func (c *Cache) Dir() string { return c.dir }

// path fans entries out over 256 subdirectories keyed by the first hash
// byte, keeping directory listings fast for large sweeps. Callers
// validate key shape first (ValidKey); key[:2] on a short key panics.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

// Get looks up key. It returns (entry, true) on a hit and (zero, false) on
// a miss. A present-but-corrupt entry (torn write, truncation, format
// drift) is removed and reported as a miss; a malformed key is a plain
// miss (it cannot name an entry).
func (c *Cache) Get(key string) (Entry, bool) {
	if !ValidKey(key) {
		return Entry{}, false
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return Entry{}, false
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil || e.Format != scenario.CacheFormat {
		os.Remove(c.path(key))
		return Entry{}, false
	}
	return e, true
}

// Raw returns the stored document for key without decoding it: the
// exact bytes Put wrote. A missing file, a malformed key and a file that
// is not shaped like Put's output (isStored) are misses. Raw deletes
// nothing; Get stays the one place that removes corrupt entries.
func (c *Cache) Raw(key string) ([]byte, bool) {
	if !ValidKey(key) {
		return nil, false
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil || !isStored(data) {
		return nil, false
	}
	return data, true
}

// storedPrefix is how every document Put writes begins: MarshalIndent
// puts Entry's first field, Format, on the document's first line.
var storedPrefix = []byte("{\n \"format\": \"" + scenario.CacheFormat + "\",")

// isStored reports whether data can be a document Put wrote: it begins
// as Put's encoding of the current format does and is valid JSON. It is
// the whole check a document gets before sfsweepd serves it as is.
func isStored(data []byte) bool {
	return bytes.HasPrefix(data, storedPrefix) && json.Valid(data)
}

// Has reports whether an entry for key is present on disk, without
// reading or validating it. (A corrupt entry counts as present here; Get
// detects and deletes it, so the job still recomputes.)
func (c *Cache) Has(key string) bool {
	if !ValidKey(key) {
		return false
	}
	_, err := os.Stat(c.path(key))
	return err == nil
}

// Put stores entry under key atomically. The temp file lives in the cache
// root (same filesystem as the final path) so the rename is atomic. A
// malformed key is a *KeyError.
func (c *Cache) Put(key string, e Entry) error {
	if !ValidKey(key) {
		return &KeyError{Key: key}
	}
	e.Format = scenario.CacheFormat
	data, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return fmt.Errorf("sweep: encoding cache entry: %w", err)
	}
	final := c.path(key)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return fmt.Errorf("sweep: cache subdir: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("sweep: cache temp file: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: writing cache entry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: closing cache entry: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: committing cache entry: %w", err)
	}
	return nil
}

// Keys iterates the keys of every valid-looking entry present on disk
// (by path shape; entries are not decoded), in walk order. Only 64-hex
// basenames qualify: a stray results.json artifact dropped into the tree
// used to be listed here -- and then 404 on fetch, since Get rejects the
// malformed key -- so anything that cannot be a scenario key is skipped.
// A walk error is yielded with an empty key and ends the iteration: the
// caller always learns about an unreadable cache instead of mistaking it
// for an empty one. The server's /api/v1/results index handler streams
// directly from this iterator, so listing a large cache never
// materialises the key set.
func (c *Cache) Keys() iter.Seq2[string, error] {
	return func(yield func(string, error) bool) {
		_ = filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, walkErr error) error {
			if walkErr != nil {
				yield("", walkErr)
				return fs.SkipAll
			}
			if d.IsDir() {
				return nil
			}
			if filepath.Ext(path) != ".json" {
				return nil
			}
			key := strings.TrimSuffix(filepath.Base(path), ".json")
			if !ValidKey(key) {
				return nil // foreign file, not an entry
			}
			if !yield(key, nil) {
				return fs.SkipAll
			}
			return nil
		})
	}
}

// Len counts the entries on disk (via Keys; entries are not decoded).
// Intended for tooling and tests.
func (c *Cache) Len() (int, error) {
	n := 0
	for _, err := range c.Keys() {
		if err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
