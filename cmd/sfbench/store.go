package main

import (
	"encoding/json"
	"sync"
	"time"

	"slimfly/internal/sweep"
)

// storeTimes collects what timedStore measures; one sink may serve the
// stores of several passes.
type storeTimes struct {
	mu         sync.Mutex
	hits       []time.Duration
	misses     []time.Duration
	puts       []time.Duration
	entryBytes []float64 // JSON size of each entry put
}

// timedStore decorates a sweep.Store with per-call timing of the
// content-addressed side -- Get hits, Get misses, Put -- and a span per
// call under the job (or request) that has the key's id open. Everything
// else passes through untouched. Only traced passes run behind it.
type timedStore struct {
	sweep.Store
	tr    *tracer
	times *storeTimes
}

// keyID is the span id of everything done for one scenario key.
func keyID(key string) string {
	return key[:min(12, len(key))]
}

func (s *timedStore) Get(key string) (sweep.Entry, bool) {
	sp := s.tr.start(keyID(key), "Store.Get")
	e, ok := s.Store.Get(key)
	d := sp.end()
	s.times.mu.Lock()
	if ok {
		s.times.hits = append(s.times.hits, d)
	} else {
		s.times.misses = append(s.times.misses, d)
	}
	s.times.mu.Unlock()
	return e, ok
}

func (s *timedStore) Put(key string, e sweep.Entry) error {
	sp := s.tr.start(keyID(key), "Store.Put")
	err := s.Store.Put(key, e)
	d := sp.end()
	size := 0
	if data, merr := json.Marshal(e); merr == nil {
		size = len(data)
	}
	s.times.mu.Lock()
	s.times.puts = append(s.times.puts, d)
	s.times.entryBytes = append(s.times.entryBytes, float64(size))
	s.times.mu.Unlock()
	return err
}
