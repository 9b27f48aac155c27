package sweepd

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"slimfly/internal/obs"
)

var obsSubscribers = obs.NewGauge("sweepd.subscribers")

// event is one item of a sweep's ordered event stream. Seq is assigned at
// publish time under the hub lock, so every subscriber -- live or
// replayed -- observes the same totally ordered sequence; an SSE client
// that reconnects can diff its last-seen id against the replay.
type event struct {
	seq  int
	kind string // "state" | "result" | "progress" | "done"
	data []byte // single-line JSON payload
}

// writeSSE renders the event in text/event-stream framing.
func (e event) writeSSE(w io.Writer) error {
	_, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.seq, e.kind, e.data)
	return err
}

// subscriberBuffer is each subscriber's channel capacity. A subscriber
// that falls this many events behind a running sweep (a stalled client
// on an unflushable connection) is dropped -- its channel is closed --
// rather than allowed to block publishers or buffer without bound; it
// can reconnect and recover the full ordered log from the replay.
const subscriberBuffer = 256

// maxSubscribers bounds a sweep's live subscribers. Each one holds a
// subscriberBuffer-event channel and its own copy of the log, so past this
// many subscribe refuses rather than let them grow without bound.
const maxSubscribers = 64

// hub is a per-sweep broadcast log: publish appends to an ordered event
// log and fans out to live subscribers; subscribe returns the log so far
// (replay) plus a live channel, atomically, so a late subscriber misses
// nothing and sees no duplicates. All methods are safe for concurrent
// use; publish and close after close are no-ops.
type hub struct {
	mu     sync.Mutex
	log    []event
	subs   map[chan event]struct{}
	closed bool
}

func newHub() *hub {
	return &hub{subs: make(map[chan event]struct{})}
}

// publish marshals v, appends it to the log with the next sequence
// number and fans it out. Marshalling happens under the lock: event
// order and sequence assignment are a single atomic step.
func (h *hub) publish(kind string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		// Payloads are structs of scalars and strings; a marshal failure
		// is a programming error, but a broken event must not take the
		// sweep down.
		data = []byte(fmt.Sprintf(`{"marshal_error":%q}`, err.Error()))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	ev := event{seq: len(h.log) + 1, kind: kind, data: data}
	h.log = append(h.log, ev)
	for ch := range h.subs {
		select {
		case ch <- ev:
		default: // lagging subscriber: drop it, keep the sweep moving
			delete(h.subs, ch)
			close(ch)
			obsSubscribers.Add(-1)
		}
	}
}

// subscribe returns the events published so far and a live channel for
// the rest. cancel unsubscribes (idempotent) and frees the slot; after hub
// close the live channel is closed once drained. ok is false, and nothing
// else is returned, while maxSubscribers are live.
func (h *hub) subscribe() (replay []event, live <-chan event, cancel func(), ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.subs) >= maxSubscribers {
		return nil, nil, nil, false
	}
	replay = append([]event(nil), h.log...)
	ch := make(chan event, subscriberBuffer)
	if h.closed {
		close(ch)
		return replay, ch, func() {}, true
	}
	h.subs[ch] = struct{}{}
	obsSubscribers.Add(1)
	return replay, ch, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if _, ok := h.subs[ch]; ok {
			delete(h.subs, ch)
			close(ch)
			obsSubscribers.Add(-1)
		}
	}, true
}

// close ends the stream: every subscriber's channel is closed after its
// buffered events, and future publishes are dropped. Idempotent.
func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		close(ch)
		obsSubscribers.Add(-1)
	}
	h.subs = nil
}
