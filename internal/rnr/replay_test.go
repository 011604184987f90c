package rnr

import (
	"testing"

	"rnrsim/internal/mem"
	"rnrsim/internal/trace"
)

// metaBackend is a fake memory path for metadata with a fixed latency,
// driven by Tick like the real controller.
type metaBackend struct {
	latency  uint64
	clock    uint64
	inflight []*mem.Request
	finish   []uint64
	Reads    int
	Writes   int
	rejectN  int // reject the first N enqueues
}

func (m *metaBackend) TryEnqueue(r *mem.Request) bool {
	if m.rejectN > 0 {
		m.rejectN--
		return false
	}
	switch r.Type {
	case mem.ReqMetaWrite, mem.ReqWriteback:
		m.Writes++
		r.Complete(m.clock)
	default:
		m.Reads++
		m.inflight = append(m.inflight, r)
		m.finish = append(m.finish, m.clock+m.latency)
	}
	return true
}

func (m *metaBackend) Tick(now uint64) {
	m.clock = now
	kept, keptF := m.inflight[:0], m.finish[:0]
	for i, r := range m.inflight {
		if m.finish[i] <= now {
			r.Complete(now)
		} else {
			kept = append(kept, r)
			keptF = append(keptF, m.finish[i])
		}
	}
	m.inflight, m.finish = kept, keptF
}

// buildRecorded creates an engine with nEntries recorded misses (one read
// per miss) and switches it to replay over the fake backend.
func buildRecorded(t *testing.T, meta mem.Backend, nEntries int, window uint64) *Engine {
	t.Helper()
	e := NewEngine(0, meta)
	e.DefaultWindow = window
	base := mem.Addr(0x100000)
	e.HandleMarker(trace.Mark(trace.MarkInit, 0, 0, 0), 0)
	e.HandleMarker(trace.Mark(trace.MarkSeqTable, 0x7000_0000, uint64(nEntries*8), 0), 0)
	e.HandleMarker(trace.Mark(trace.MarkDivTable, 0x7100_0000, 1<<16, 0), 0)
	e.HandleMarker(trace.Mark(trace.MarkAddrBaseSet, base, 1<<24, 0), 0)
	e.HandleMarker(trace.Mark(trace.MarkAddrBaseEnable, 0, 0, 0), 0)
	e.HandleMarker(trace.Mark(trace.MarkRecordStart, 0, 0, 0), 0)
	for i := 0; i < nEntries; i++ {
		r := mem.NewRequest(mem.ReqLoad, base+mem.Addr(i*mem.LineSize), 1, 0, 0)
		e.PreAccess(r)
		structMiss(e, base+mem.Addr(i*mem.LineSize))
	}
	e.HandleMarker(trace.Mark(trace.MarkReplay, 0, 0, 0), 0)
	return e
}

func TestReplayMetadataStreamingPacesPrefetch(t *testing.T) {
	mb := &metaBackend{latency: 40}
	e := buildRecorded(t, mb, 256, 64)
	e.Control = NoControl

	issued := 0
	issue := func(line mem.Addr) bool { issued++; return true }

	// Before any metadata arrives nothing can issue.
	e.OnCycle(1, issue)
	if issued != 0 {
		t.Fatalf("issued %d prefetches before metadata arrived", issued)
	}
	if mb.Reads == 0 {
		t.Fatal("no metadata reads issued")
	}
	// Drive until the whole sequence replays.
	for cy := uint64(2); cy < 10000 && issued < 256; cy++ {
		mb.Tick(cy)
		e.OnCycle(cy, issue)
	}
	if issued != 256 {
		t.Fatalf("replayed %d of 256 entries", issued)
	}
	// Metadata reads: sequence (256*4B = 16 lines) + division lines.
	if mb.Reads < 16 {
		t.Errorf("only %d metadata reads for 16 sequence lines", mb.Reads)
	}
}

func TestReplayMetadataBackpressure(t *testing.T) {
	mb := &metaBackend{latency: 10, rejectN: 5}
	e := buildRecorded(t, mb, 64, 32)
	e.Control = NoControl
	issued := 0
	for cy := uint64(1); cy < 5000 && issued < 64; cy++ {
		mb.Tick(cy)
		e.OnCycle(cy, func(mem.Addr) bool { issued++; return true })
	}
	if issued != 64 {
		t.Errorf("replay lost entries behind metadata backpressure: %d/64", issued)
	}
}

func TestReplayRestartInvalidatesStaleMetadata(t *testing.T) {
	// A second MarkReplay while metadata reads are in flight must not let
	// the stale completions corrupt the fresh replay's counters.
	mb := &metaBackend{latency: 1000} // reads stay in flight
	e := buildRecorded(t, mb, 128, 32)
	e.Control = NoControl
	e.OnCycle(1, func(mem.Addr) bool { return true }) // issues meta reads
	if mb.Reads == 0 {
		t.Fatal("no metadata reads in flight")
	}
	e.HandleMarker(trace.Mark(trace.MarkReplay, 0, 0, 0), 2) // restart
	// Let the stale reads complete.
	mb.Tick(2000)
	if e.fetchedIdx != 0 && e.fetchedIdx > len(e.seq) {
		t.Errorf("stale completions corrupted fetchedIdx = %d", e.fetchedIdx)
	}
	if e.metaInFly < 0 {
		t.Errorf("metaInFly went negative: %d", e.metaInFly)
	}
	// The restarted replay must still complete.
	issued := 0
	for cy := uint64(2001); cy < 20000 && issued < 128; cy++ {
		mb.Tick(cy)
		e.OnCycle(cy, func(mem.Addr) bool { issued++; return true })
	}
	if issued != 128 {
		t.Errorf("restarted replay issued %d/128", issued)
	}
}

func TestConsumedEstimateInterpolation(t *testing.T) {
	e := NewEngine(0, nil)
	e.Arch.WindowSize = 10
	e.seq = make([]SeqEntry, 40)
	e.div = []uint64{100, 300, 350, 400} // reads at each window end
	e.curWindow = 1                      // window 1 in progress (reads 100..300)
	e.curStructRead = 200                // halfway through window 1
	if got := e.consumedEstimate(); got != 15 {
		t.Errorf("consumedEstimate = %d, want 15 (1.5 windows)", got)
	}
	e.curStructRead = 100 // window start
	if got := e.consumedEstimate(); got != 10 {
		t.Errorf("consumedEstimate at window start = %d, want 10", got)
	}
	e.curWindow = 4 // past the table
	if got := e.consumedEstimate(); got != 40 {
		t.Errorf("consumedEstimate past end = %d, want len(seq)", got)
	}
}

func TestLeadReadsCapThrottlesSparseMissWindows(t *testing.T) {
	e := NewEngine(0, nil)
	e.Control = WindowPaceControl
	e.Arch.WindowSize = 16
	e.LeadEntries = 64
	e.LeadReadsCap = 64
	e.seq = make([]SeqEntry, 64)
	// Window 0 spans 16*32 = 512 reads: each miss is 32 reads apart, so
	// the 64-read cap allows only 64*16/512 = 2 entries of lead (min 4).
	e.div = []uint64{512, 1024, 1536, 2048}
	e.curWindow = 0
	e.curStructRead = 0
	if e.eligible(3) != true {
		t.Error("entry within the min-4 lead must be eligible")
	}
	if e.eligible(10) {
		t.Error("entry beyond the read-capped lead must wait")
	}
	// Dense windows (span == W) are not throttled below LeadEntries.
	e.div = []uint64{16, 32, 48, 64}
	if !e.eligible(10) {
		t.Error("dense window wrongly throttled")
	}
}

func TestWindowAdvanceRequiresDivMetadata(t *testing.T) {
	mb := &metaBackend{latency: 100000} // division table never arrives
	e := buildRecorded(t, mb, 64, 16)
	e.Control = WindowControl
	// Simulate program progress: without fetched division entries the
	// window counter cannot advance.
	for i := 0; i < 64; i++ {
		r := mem.NewRequest(mem.ReqLoad, 0x100000, 1, 0, 0)
		e.PreAccess(r)
	}
	e.advanceWindow()
	if e.curWindow != 0 {
		t.Errorf("window advanced to %d without division metadata", e.curWindow)
	}
}

func TestEndFreesButKeepsStats(t *testing.T) {
	e := buildRecorded(t, &metaBackend{latency: 1}, 32, 16)
	seqBytes := e.Stats.SeqTableBytes
	if seqBytes != 32*SeqEntryBytes {
		t.Fatalf("seq bytes = %d", seqBytes)
	}
	e.HandleMarker(trace.Mark(trace.MarkEnd, 0, 0, 0), 10)
	if e.Arch.State != StateIdle {
		t.Errorf("state after RnR.end = %v", e.Arch.State)
	}
	if e.Stats.SeqTableBytes != seqBytes {
		t.Error("RnR.end lost the storage accounting")
	}
}
