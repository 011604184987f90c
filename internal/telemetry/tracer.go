package telemetry

import (
	"encoding/json"
	"io"
	"sync"
)

// TraceEvent is one Chrome trace-event object. The subset used here
// (B/E duration pairs, i instants, M metadata) loads in Perfetto and
// chrome://tracing. Timestamps are simulated CPU cycles presented as
// microseconds (the trace format's native unit), so "1 ms" on screen is
// 1000 cycles.
type TraceEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   uint64         `json:"ts"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`    // instant scope
	Args map[string]any `json:"args,omitempty"` // metadata payload
}

// TraceFile is the exported top-level object.
type TraceFile struct {
	TraceEvents []TraceEvent   `json:"traceEvents"`
	OtherData   map[string]any `json:"otherData,omitempty"`
}

// Tracer collects spans and instants. Spans are emitted as matched B/E
// pairs in one append, so the export never contains an unpaired begin.
// Each distinct track string becomes one Perfetto thread row, named via
// an M (thread_name) metadata event.
type Tracer struct {
	mu      sync.Mutex
	cap     int
	events  []TraceEvent
	tids    map[string]int
	order   []string
	dropped uint64
}

// traceCap bounds a recorder's retained trace events; newer ones are
// dropped.
const traceCap = 1 << 20

// newTracer returns a tracer keeping at most eventCap events.
func newTracer(eventCap int) *Tracer {
	return &Tracer{cap: eventCap, tids: make(map[string]int)}
}

func (t *Tracer) tid(track string) int {
	id, ok := t.tids[track]
	if !ok {
		id = len(t.tids) + 1
		t.tids[track] = id
		t.order = append(t.order, track)
	}
	return id
}

// span appends a completed [start,end] duration on track.
func (t *Tracer) span(track, name string, start, end uint64) {
	if end < start {
		start, end = end, start
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events)+2 > t.cap {
		t.dropped += 2
		return
	}
	id := t.tid(track)
	t.events = append(t.events,
		TraceEvent{Name: name, Cat: track, Ph: "B", TS: start, TID: id},
		TraceEvent{Name: name, Cat: track, Ph: "E", TS: end, TID: id},
	)
}

// instant appends a point event on track.
func (t *Tracer) instant(track, name string, cycle uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events)+1 > t.cap {
		t.dropped++
		return
	}
	t.events = append(t.events, TraceEvent{
		Name: name, Cat: track, Ph: "i", TS: cycle, TID: t.tid(track), S: "t",
	})
}

// Len returns the number of recorded events (metadata excluded).
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns how many events were discarded at the cap.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// WriteTrace emits the Chrome trace-event JSON object.
func (t *Tracer) WriteTrace(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	file := TraceFile{
		OtherData: map[string]any{
			"clock": "simulated CPU cycles, presented as microseconds",
		},
	}
	// Thread-name metadata first, then the events in record order.
	for _, track := range t.order {
		file.TraceEvents = append(file.TraceEvents, TraceEvent{
			Name: "thread_name", Ph: "M", TID: t.tids[track],
			Args: map[string]any{"name": track},
		})
	}
	file.TraceEvents = append(file.TraceEvents, t.events...)
	if file.TraceEvents == nil {
		file.TraceEvents = []TraceEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(file)
}
