package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// Event types on a job's SSE stream.
const (
	// EventState marks a lifecycle transition (queued, running, done,
	// failed, canceled). Terminal states end the stream.
	EventState = "state"
	// EventPhase is a live progress tick from inside the simulator: one
	// per iteration-barrier opening, labelled with the run key (an
	// experiment job interleaves ticks from many keys).
	EventPhase = "phase"
)

// Event is one frame on an event stream. Seq is assigned by the log,
// strictly increasing per stream, and doubles as the SSE `id:` field so
// clients can detect gaps and resume with Last-Event-ID.
type Event struct {
	Seq   int       `json:"seq"`
	Type  string    `json:"type"`
	State JobState  `json:"state,omitempty"`
	Error string    `json:"error,omitempty"`
	Phase *PhaseRef `json:"phase,omitempty"`
	// Data carries layered payloads the serve job vocabulary does not
	// model (e.g. the cluster coordinator's aggregate sweep progress).
	Data json.RawMessage `json:"data,omitempty"`
}

// PhaseRef locates a progress tick: which memoised run it came from and
// where that simulation is.
type PhaseRef struct {
	Key       string `json:"key"`
	Iteration int    `json:"iteration"`
	Cycle     uint64 `json:"cycle"`
}

// WriteSSE renders the event as one server-sent-events frame.
func (e Event) WriteSSE(w io.Writer) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data)
	return err
}

// maxRetainedEvents bounds a stream's event history. State events are
// five per lifetime; phase ticks dominate, one per simulated
// iteration, so the bound only matters for pathological workloads.
// When it is hit the oldest events are dropped — subscribers see the
// gap in Seq.
const maxRetainedEvents = 4096

// subscriberBuffer is the per-subscriber channel depth. A subscriber
// that falls further behind than this has events dropped (never the
// terminal state event: Close is ordered after the final publish,
// and the channel close itself signals termination).
const subscriberBuffer = 1024

// EventLog is an append-only event history with fan-out: late
// subscribers replay the retained history, then follow live. Jobs and
// the cluster layer's aggregate sweep streams both publish through it.
type EventLog struct {
	mu     sync.Mutex
	next   int // next Seq
	events []Event
	subs   map[chan Event]struct{}
	closed bool
}

// NewEventLog returns an empty open log.
func NewEventLog() *EventLog {
	return &EventLog{subs: make(map[chan Event]struct{})}
}

// Publish stamps the event with the next sequence number, retains it
// and fans it out. Slow subscribers lose the event rather than block
// the goroutine publishing it. It returns the assigned sequence number
// (-1 once the log is closed).
func (l *EventLog) Publish(ev Event) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return -1
	}
	ev.Seq = l.next
	l.next++
	l.events = append(l.events, ev)
	if len(l.events) > maxRetainedEvents {
		l.events = l.events[len(l.events)-maxRetainedEvents:]
	}
	for ch := range l.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop rather than block
		}
	}
	return ev.Seq
}

// Close ends the stream: every subscriber channel is closed after
// the events already queued drain. Publishing after Close is a no-op.
func (l *EventLog) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	for ch := range l.subs {
		close(ch)
	}
	l.subs = nil
}

// SubscribeFrom returns the retained events with Seq > after and a live
// channel (nil when the log is already closed — the history is
// complete), so a client reconnecting with Last-Event-ID sees exactly
// the events it missed rather than the full history. after < 0 replays
// everything. cancel must be called when the subscriber goes away; it
// is safe to call after Close.
func (l *EventLog) SubscribeFrom(after int) (history []Event, live <-chan Event, cancel func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ev := range l.events {
		if ev.Seq > after {
			history = append(history, ev)
		}
	}
	if l.closed {
		return history, nil, func() {}
	}
	ch := make(chan Event, subscriberBuffer)
	l.subs[ch] = struct{}{}
	return history, ch, func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		if _, ok := l.subs[ch]; ok {
			delete(l.subs, ch)
			close(ch)
		}
	}
}

// lastEventID extracts the SSE resume cursor from a request: the
// standard Last-Event-ID header set by EventSource reconnects, with a
// last_event_id query parameter fallback for clients (curl, test
// harnesses) that cannot set headers. Returns -1 (replay everything)
// when absent or malformed.
func lastEventID(r *http.Request) int {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("last_event_id")
	}
	if raw == "" {
		return -1
	}
	id, err := strconv.Atoi(raw)
	if err != nil || id < 0 {
		return -1
	}
	return id
}

// StreamSSE serves an EventLog over one SSE response: missed-history
// replay first (honouring Last-Event-ID), then live events until the
// log closes or the client disconnects. Both the job event streams and
// the cluster sweep aggregate stream are served through this path.
func StreamSSE(w http.ResponseWriter, r *http.Request, l *EventLog) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	history, live, cancel := l.SubscribeFrom(lastEventID(r))
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	for _, ev := range history {
		if ev.WriteSSE(w) != nil {
			return
		}
	}
	flusher.Flush()
	if live == nil { // already terminal: history is complete
		return
	}
	for {
		select {
		case ev, ok := <-live:
			if !ok { // log closed: terminal event already delivered
				return
			}
			if ev.WriteSSE(w) != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
