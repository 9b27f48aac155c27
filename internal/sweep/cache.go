package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"slimfly/internal/metrics"
	"slimfly/internal/obs"
	"slimfly/internal/scenario"
	"slimfly/internal/sim"
)

// What a read cost, summed over every Cache in the process: a document
// read from disk, or one served from the memo after a single stat; and
// each time Get decoded a document's JSON.
var (
	obsFileReads = obs.NewCounter("sweep.store.file_reads")
	obsMemoHits  = obs.NewCounter("sweep.store.memo_hits")
	obsDecodes   = obs.NewCounter("sweep.store.decodes")
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
//
// Get and Raw share one read path (load). A document that passed
// isStored and is at most memoMaxDoc bytes is memoised in one of
// memoSlots direct-mapped slots, chosen by the key's first three hex
// digits, together with the identity of the file it was read from: the
// open handle's own Stat (os.SameFile, size, modification time), taken
// before the handle is read, so the bytes and the identity always
// describe the same file. A later read is a hit when one os.Stat of the
// entry's path matches that identity; it costs no open, read or
// json.Valid. A missing file or a different identity drops the slot and
// reads the file again. Put renames a new file into place, which always
// changes the identity. The one change a hit cannot see is a file
// rewritten at the same size within one tick of the filesystem's clock
// on the same inode -- in place, or on a recycled inode number -- and
// Put never rewrites in place.
//
// A slot also keeps the decoded entry, once a Get has decoded its
// document and checked its format: the decoding is tied to the bytes
// and the identity it came from, so a later Get on the same file
// returns a copy of it and runs no json.Unmarshal, and anything that
// drops or replaces the document drops the entry with it. A document
// only Raw reads is never decoded. The memo holds at most
// memoSlots*memoMaxDoc bytes of documents (64 MiB) plus one decoded
// entry per slot: 1.4 KiB of heap for a latency,channels,fairness
// entry (a 4.0-4.1 KiB document), 5.5 MiB over all 4 096 slots, and the
// entry's path, the cache directory plus 72 bytes. It is allocated on the
// first read.
type Cache struct {
	dir  string
	root string // dir cleaned once by OpenCache: the prefix of every entry path
	memo atomic.Pointer[[memoSlots]atomic.Pointer[memoDoc]]
}

// The read memo's bounds: one slot per value of a key's first three hex
// digits, and the largest document a slot keeps. Larger documents (a
// trace collector's can run to megabytes) are read from disk every time.
const (
	memoSlots  = 1 << 12
	memoMaxDoc = 16 << 10
)

// memoDoc is one memoised document: the exact bytes that passed
// isStored, the path and identity of the file they were read from and,
// once a Get has decoded them and checked their format, the decoded
// entry. A hit stats the kept path, so it builds no string. A memoDoc in
// a slot is never modified: Get keeps the entry by swapping in a new
// memoDoc that carries it.
type memoDoc struct {
	key   string
	path  string
	data  []byte
	file  os.FileInfo
	entry *Entry
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
	root := filepath.Clean(dir)
	switch {
	case root == ".":
		root = "" // filepath.Join drops a leading "./"
	case !os.IsPathSeparator(root[len(root)-1]): // Clean leaves one only on "/"
		root += string(filepath.Separator)
	}
	return &Cache{dir: dir, root: root}, nil
}

// Dir returns the cache root directory.
func (c *Cache) Dir() string { return c.dir }

// path fans entries out over 256 subdirectories keyed by the first hash
// byte, keeping directory listings fast for large sweeps. It is
// filepath.Join(c.dir, key[:2], key+".json") built by concatenation:
// root is already clean, and a key of 64 hex digits needs no cleaning.
// Callers validate key shape first (ValidKey); key[:2] on a short key
// panics.
func (c *Cache) path(key string) string {
	return c.root + key[:2] + string(filepath.Separator) + key + ".json"
}

// Get looks up key. It returns (entry, true) on a hit and (zero, false) on
// a miss. A present-but-corrupt entry (torn write, truncation, format
// drift) is removed and reported as a miss; a malformed key is a plain
// miss (it cannot name an entry). The first Get of a memoised document
// decodes it and keeps the entry in the document's slot; every later
// hit on the same file returns a copy of that entry and decodes nothing.
func (c *Cache) Get(key string) (Entry, bool) {
	if !ValidKey(key) {
		return Entry{}, false
	}
	m, _ := c.load(key)
	if m == nil {
		return Entry{}, false
	}
	if m.entry != nil {
		return *m.entry, true
	}
	obsDecodes.Inc()
	var e Entry
	if err := json.Unmarshal(m.data, &e); err != nil || e.Format != scenario.CacheFormat {
		os.Remove(c.path(key))
		return Entry{}, false
	}
	// The swap succeeds only while m is still the document in key's
	// slot: nothing has dropped or replaced it since load returned it. A
	// document too large, or not shaped the way Put writes it, was never
	// in the slot, so its entry is not kept.
	kept := *m
	kept.entry = &e
	c.slot(key).CompareAndSwap(m, &kept)
	return e, true
}

// Raw returns the stored document for key without decoding it: the
// exact bytes Put wrote, shared with the memo, so the caller must not
// modify them. A missing file, a malformed key and a file that is not
// shaped like Put's output (isStored) are misses. Raw deletes nothing;
// Get stays the one place that removes corrupt entries.
func (c *Cache) Raw(key string) ([]byte, bool) {
	if !ValidKey(key) {
		return nil, false
	}
	m, stored := c.load(key)
	if !stored {
		return nil, false
	}
	return m.data, true
}

// load returns the document at key's path, nil when there is no
// readable file, and whether it is shaped the way Put writes it
// (isStored). A memoised document is returned after one stat that finds
// the identity it was read with; anything else drops the slot and reads
// the file through one handle: its Stat first, then as many bytes as
// that Stat counts. A stored document small enough is memoised with
// that identity.
func (c *Cache) load(key string) (*memoDoc, bool) {
	slot := c.slot(key)
	if m := slot.Load(); m != nil && m.key == key {
		if fi, err := os.Stat(m.path); err == nil && sameFile(fi, m.file) {
			obsMemoHits.Inc()
			return m, true
		}
		slot.CompareAndSwap(m, nil)
	}
	path := c.path(key)
	f, err := os.Open(path)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, false
	}
	data := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, false
	}
	obsFileReads.Inc()
	m := &memoDoc{key: key, path: path, data: data, file: fi}
	stored := isStored(data)
	if stored && len(data) <= memoMaxDoc {
		slot.Store(m)
	}
	return m, stored
}

// slot returns key's memo slot, allocating the memo on the first read.
func (c *Cache) slot(key string) *atomic.Pointer[memoDoc] {
	m := c.memo.Load()
	if m == nil {
		c.memo.CompareAndSwap(nil, new([memoSlots]atomic.Pointer[memoDoc]))
		m = c.memo.Load()
	}
	i, _ := strconv.ParseUint(key[:3], 16, 16) // ValidKey holds: three hex digits
	return &m[i]
}

// sameFile reports whether a and b describe one file in one state: the
// same file (os.SameFile) with the same size and modification time.
func sameFile(a, b os.FileInfo) bool {
	return os.SameFile(a, b) && a.Size() == b.Size() && a.ModTime().Equal(b.ModTime())
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

// Keys iterates the keys of every entry present on disk where Get and
// Raw look for it, <dir>/<key[:2]>/<key>.json (by path shape; entries
// are not decoded), in lexical order. Anything else is skipped: a stray
// results.json artifact, a basename that is not a 64-hex key, or a copy
// of an entry at the root or under another key's fan-out directory --
// each used to be listed here and then 404 on fetch. A read error is
// yielded with an empty key and ends the iteration: the caller always
// learns about an unreadable cache instead of mistaking it for an empty
// one. The server's /api/v1/results index handler streams directly from
// this iterator, so listing a large cache never materialises the key
// set.
func (c *Cache) Keys() iter.Seq2[string, error] {
	return func(yield func(string, error) bool) {
		dirs, err := os.ReadDir(c.dir)
		if err != nil {
			yield("", err)
			return
		}
		for _, d := range dirs {
			if !d.IsDir() || len(d.Name()) != 2 {
				continue
			}
			files, err := os.ReadDir(filepath.Join(c.dir, d.Name()))
			if err != nil {
				yield("", err)
				return
			}
			for _, f := range files {
				key, ok := strings.CutSuffix(f.Name(), ".json")
				if f.IsDir() || !ok || !ValidKey(key) || key[:2] != d.Name() {
					continue // foreign or misplaced file, not an entry
				}
				if !yield(key, nil) {
					return
				}
			}
		}
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
