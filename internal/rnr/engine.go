package rnr

import (
	"rnrsim/internal/cache"
	"rnrsim/internal/mem"
	"rnrsim/internal/prefetch"
	"rnrsim/internal/telemetry"
	"rnrsim/internal/trace"
)

// TimingControl selects the replay pacing mechanism, the subject of the
// paper's Fig. 10/11 ablation.
type TimingControl int

const (
	// NoControl replays as fast as the prefetch queue accepts — the
	// strawman that thrashes the L2 (Fig. 5(b)).
	NoControl TimingControl = iota
	// WindowControl gates prefetching one recorded window ahead of the
	// program's progress, measured in demand reads to the target
	// structures (Fig. 5(c)).
	WindowControl
	// WindowPaceControl additionally spreads prefetches evenly inside a
	// window: one prefetch per NPace structure reads (Fig. 5(d)).
	WindowPaceControl
)

var controlNames = [...]string{"nocontrol", "window", "window+pace"}

func (t TimingControl) String() string {
	if int(t) >= 0 && int(t) < len(controlNames) {
		return controlNames[t]
	}
	return "control(?)"
}

// Stats counts engine activity for the evaluation.
type Stats struct {
	StructReads     uint64 // demand reads inside enabled boundaries
	RecordedEntries uint64 // sequence-table entries written
	RecordedWindows uint64 // division-table entries written
	SeqOverflows    uint64 // entries dropped: programmer table too small
	MetaWriteLines  uint64 // 64 B metadata lines written (record)
	MetaReadLines   uint64 // 64 B metadata lines read (replay)
	TLBLookups      uint64 // metadata page-crossing translations
	Prefetches      uint64 // replay prefetches issued
	Replays         uint64 // replay phases started
	Pauses          uint64
	Resumes         uint64
	// Timeliness shadow classification (engine view; on-time and late are
	// taken from the cache's useful/late counters).
	EarlyPrefetches uint64 // prefetched, evicted unused, demanded later
	OutOfWindow     uint64 // prefetched, never demanded in the iteration
	// Final metadata footprint (bytes), for Fig. 13.
	SeqTableBytes uint64
	DivTableBytes uint64

	// Replay diagnostics: how many struct misses happened during replay,
	// and how many of those were for lines the engine had already
	// prefetched this iteration (i.e. timing failures, not address
	// failures).
	ReplayStructMisses  uint64
	ReplayMissesCovered uint64
	SkippedEntries      uint64 // stale entries skipped after falling behind
}

// MetadataBytes is the total recorded metadata footprint.
func (s Stats) MetadataBytes() uint64 { return s.SeqTableBytes + s.DivTableBytes }

// track states for the timeliness shadow map.
const (
	trackIssued  uint8 = 1 // prefetch issued this iteration
	trackEvicted uint8 = 2 // prefetched and evicted before any use
)

// Engine is one core's RnR prefetcher. It implements prefetch.Prefetcher
// (recording, and replay timeliness, on the L2 access stream) and
// prefetch.CycleDriven (the paced replay loop), and additionally hooks the core's PreAccess (boundary
// check), the L2's evict events (timeliness) and the core's marker
// stream (the software interface).
type Engine struct {
	Arch          ArchState
	Control       TimingControl
	DefaultWindow uint64 // window-size register value set by RnR.init()
	// LeadEntries bounds how far (in sequence entries) pace control runs
	// ahead of the consumption estimate; 0 = one full window.
	LeadEntries int
	// LeadReadsCap additionally bounds the lead measured in structure
	// *reads*: on low-miss-ratio windows a fixed entry lead would stretch
	// over thousands of reads of demand churn, evicting the prefetched
	// lines before use. 0 = no read-based cap.
	LeadReadsCap int
	// RecordAllAccesses records every in-range read instead of only L2
	// misses — the naive design §III rejects ("recording all of the
	// structure accesses may lead to redundant record and prefetch").
	// Kept as an ablation knob.
	RecordAllAccesses bool
	Core              int

	meta mem.Backend // metadata path (cache-bypassing, straight to DRAM)
	// metaPost is the scratch request metaWrite posts (the backend copies
	// it); metaArena/metaFree recycle the metadata reads, which carry
	// Done and so stay engine-owned until they complete.
	metaPost  mem.Request
	metaArena []metaRead
	metaFree  []*metaRead

	// Recorded metadata (model of the in-memory tables' contents).
	seq []SeqEntry
	div []uint64 // cumulative struct reads at the end of each window

	// Record-side registers.
	curStructRead uint64
	seqBufCount   int
	divBufCount   int
	lastSeqPage   mem.Addr
	lastDivPage   mem.Addr

	// Replay-side registers.
	nextIdx     int    // next sequence entry to prefetch
	fetchedIdx  int    // sequence entries whose metadata has arrived on chip
	metaIssued  int    // sequence entries covered by issued metadata reads
	metaInFly   int    // outstanding metadata line reads
	metaGen     uint64 // invalidates stale completions across replay resets
	divFetched  int    // division entries available on chip
	divIssued   int
	divInFly    int
	curWindow   int
	retryLine   mem.Addr // prefetch that failed to enqueue, retried first
	retryValid  bool
	windowReads uint64 // struct reads when the current window started

	track          map[mem.Addr]uint8
	issuedThisIter map[mem.Addr]bool

	// wake is marked on every input outside OnCycle that can move
	// Wakeup: a replay-time structure read, a metadata arrival, a marker
	// and a restore. See BindWakeFlag.
	wake mem.WakeFlag

	// diverge, when attached, scores observed replay misses against the
	// recorded sequence per window (see DivergenceProbe). Observational
	// only: excluded from state hashing and save/restore.
	diverge *DivergenceProbe

	// Telemetry (nil = disabled at zero cost): state-machine spans
	// (record/replay/paused) and metadata-refill episodes are emitted on
	// telTrack; see SetTelemetry.
	tel         *telemetry.Recorder
	telTrack    string
	stateStart  uint64
	refillStart uint64

	Stats Stats
}

// maxIssuePerCycle is how many replay prefetches the engine issues per
// cycle.
const maxIssuePerCycle = 4

// Two 128 B double buffers per table; each buffer's halves can be in
// flight independently, so up to four sequence-table line reads overlap.
// The division table streams two lines at a time.
const (
	maxSeqLinesInFlight = 4
	maxDivLinesInFlight = 2
)

// NewEngine returns an RnR engine for the given core. meta is the path
// metadata requests take to memory (normally the DRAM controller); it may
// be nil in unit tests, in which case metadata arrives instantly.
func NewEngine(core int, meta mem.Backend) *Engine {
	return &Engine{
		Core:           core,
		Control:        WindowPaceControl,
		DefaultWindow:  2048,
		meta:           meta,
		track:          make(map[mem.Addr]uint8),
		issuedThisIter: make(map[mem.Addr]bool),
		wake:           mem.NewWakeFlag(make([]uint64, 1), 0),
	}
}

// BindWakeFlag implements prefetch.CycleDriven: the engine marks f
// whenever state that Wakeup reads changes outside OnCycle.
func (e *Engine) BindWakeFlag(f mem.WakeFlag) { e.wake = f }

// InRange reports whether a line falls inside any *valid* boundary slot
// (enabled or not). The conventional prefetchers running alongside RnR are
// filtered with this predicate (§V-D): the stream prefetcher is trained by
// misses outside the Record-and-Replay address range.
func (e *Engine) InRange(line mem.Addr) bool {
	for i := range e.Arch.Bounds {
		b := e.Arch.Bounds[i]
		if b.Valid && line >= b.Base && line < b.Base+mem.Addr(b.Size) {
			return true
		}
	}
	return false
}

// PreAccess is the core-side boundary check (Fig. 4, steps 1-3): every
// demand access checks the boundary table; reads within an enabled range
// are flagged and counted in Cur Struct Read.
func (e *Engine) PreAccess(r *mem.Request) {
	if e.Arch.State != StateRecord && e.Arch.State != StateReplay {
		return
	}
	if r.Type != mem.ReqLoad {
		return
	}
	if e.Arch.Match(r.Addr) < 0 {
		return
	}
	r.StructFlag = true
	e.curStructRead++
	e.Stats.StructReads++
	if e.Arch.State == StateReplay {
		// Cur Struct Read paces replay. While recording Wakeup is
		// WakeupNever whatever the count, and the marker that starts
		// replay sets the flag itself.
		e.wake.Mark()
	}
}

// OnAccess implements prefetch.Prefetcher: the L2-side record path and the
// replay-side timeliness tracking.
func (e *Engine) OnAccess(ev cache.AccessInfo, issue prefetch.IssueFunc) {
	if !ev.StructFlag {
		return
	}
	switch e.Arch.State {
	case StateRecord:
		if e.RecordAllAccesses || (!ev.Hit && !ev.Merged) {
			e.recordMiss(ev.Line)
		}
	case StateReplay:
		st, tracked := e.track[ev.Line]
		if !ev.Hit && !ev.Merged {
			e.Stats.ReplayStructMisses++
			covered := tracked || e.issuedThisIter[ev.Line]
			if covered {
				e.Stats.ReplayMissesCovered++
			}
			if e.diverge != nil {
				if slot := e.Arch.Match(ev.Line); slot >= 0 {
					base := mem.LineAddr(e.Arch.Bounds[slot].Base)
					off := uint64(ev.Line-base) >> mem.LineShift
					e.diverge.observe(NewSeqEntry(slot, off), covered)
				}
			}
		}
		if !tracked {
			return
		}
		if !ev.Hit && !ev.Merged && st == trackEvicted {
			// Prefetched, evicted before use, now demanded: early.
			e.Stats.EarlyPrefetches++
		}
		delete(e.track, ev.Line)
	}
}

// OnEvict must be wired to the L2's eviction hook; it feeds the
// early-vs-out-of-window classification.
func (e *Engine) OnEvict(line mem.Addr, wasPrefetchedUnused bool, cycle uint64) {
	if !wasPrefetchedUnused {
		return
	}
	if st, ok := e.track[line]; ok && st == trackIssued {
		e.track[line] = trackEvicted
	}
}

// recordMiss appends one sequence-table entry (Fig. 4(a), steps 5-8).
func (e *Engine) recordMiss(line mem.Addr) {
	slot := e.Arch.Match(line)
	if slot < 0 {
		// The flag was set on the byte address; the line-aligned address
		// can fall just below an unaligned base. Skip, as hardware would.
		return
	}
	if uint64(len(e.seq)) >= e.Arch.SeqTableCap {
		e.Stats.SeqOverflows++
		return
	}
	base := mem.LineAddr(e.Arch.Bounds[slot].Base)
	off := uint64(line-base) >> mem.LineShift
	e.seq = append(e.seq, NewSeqEntry(slot, off))
	e.Stats.RecordedEntries++
	e.seqBufCount++

	// Group metadata writes at cache-line granularity (64 B = 16 entries).
	if e.seqBufCount*SeqEntryBytes >= mem.LineSize {
		e.flushSeqBuffer()
	}

	// Window boundary: record Cur Struct Read in the division table.
	if e.Arch.WindowSize > 0 && uint64(len(e.seq))%e.Arch.WindowSize == 0 {
		e.appendDiv()
	}
}

func (e *Engine) appendDiv() {
	if uint64(len(e.div)) >= e.Arch.DivTableCap {
		return
	}
	e.div = append(e.div, e.curStructRead)
	e.Stats.RecordedWindows++
	e.divBufCount++
	if e.divBufCount*DivEntryBytes >= mem.LineSize {
		e.flushDivBuffer()
	}
}

func (e *Engine) flushSeqBuffer() {
	if e.seqBufCount == 0 {
		return
	}
	addr := e.Arch.SeqTableBase + mem.Addr(len(e.seq)*SeqEntryBytes)
	e.metaWrite(addr, &e.lastSeqPage)
	e.seqBufCount = 0
}

func (e *Engine) flushDivBuffer() {
	if e.divBufCount == 0 {
		return
	}
	addr := e.Arch.DivTableBase + mem.Addr(len(e.div)*DivEntryBytes)
	e.metaWrite(addr, &e.lastDivPage)
	e.divBufCount = 0
}

// metaWrite issues one 64 B non-temporal metadata store, performing a TLB
// lookup only when the 4 MB metadata page changes (Fig. 4(a), step 7).
func (e *Engine) metaWrite(addr mem.Addr, pageReg *mem.Addr) {
	if page := mem.HugeAddr(addr); page != *pageReg {
		*pageReg = page
		e.Stats.TLBLookups++
	}
	e.Stats.MetaWriteLines++
	if e.meta == nil {
		return
	}
	e.metaPost.Init(mem.ReqMetaWrite, addr, 0, e.Core, 0)
	e.meta.TryEnqueue(&e.metaPost) // posted; if the queue is full the line
	// is absorbed by the (unmodelled) core write-combining buffer — the
	// traffic is already counted above.
}

// metaRead is one in-flight metadata line read: the request plus what its
// completion needs. Slots are recycled through the engine's freelist, so
// the replay's metadata stream allocates nothing in steady state.
type metaRead struct {
	e   *Engine
	gen uint64 // e.metaGen at issue; a reset in between orphans the read
	div bool   // division-table line (else sequence-table line)
	req mem.Request
	// boundDone caches the done method value: binding a method allocates,
	// so it happens once per slot, not once per read.
	boundDone func(cycle uint64)
}

// newMetaRead returns a recycled or freshly carved read slot whose request
// reads the metadata line at addr.
func (e *Engine) newMetaRead(addr mem.Addr, cycle uint64, div bool) *metaRead {
	var m *metaRead
	if n := len(e.metaFree); n > 0 {
		m = e.metaFree[n-1]
		e.metaFree = e.metaFree[:n-1]
	} else {
		if len(e.metaArena) == 0 {
			e.metaArena = make([]metaRead, 8)
		}
		m = &e.metaArena[0]
		e.metaArena = e.metaArena[1:]
		m.e = e
		m.boundDone = m.done
	}
	m.gen, m.div = e.metaGen, div
	m.req.Init(mem.ReqMetaRead, addr, 0, e.Core, cycle)
	m.req.Done = m.boundDone
	return m
}

// done is a metadata read's completion. The slot goes back to the
// freelist first, whether or not the read is stale: the backend has
// dropped its pointer either way.
func (m *metaRead) done(cy uint64) {
	e := m.e
	e.metaFree = append(e.metaFree, m)
	if e.metaGen != m.gen {
		return // replay was reset while this read was in flight
	}
	e.wake.Mark()
	if m.div {
		e.divInFly--
		e.divFetched += mem.LineSize / DivEntryBytes
		if e.divFetched > len(e.div) {
			e.divFetched = len(e.div)
		}
		return
	}
	e.metaInFly--
	if e.metaInFly == 0 && e.tel != nil {
		// The buffer-refill episode (first outstanding read to last
		// completion) just closed.
		e.tel.Span(e.telTrack, "seq-refill", e.refillStart, cy)
	}
	e.fetchedIdx += mem.LineSize / SeqEntryBytes
	if e.fetchedIdx > len(e.seq) {
		e.fetchedIdx = len(e.seq)
	}
}

// finalizeRecord flushes partial buffers and terminates the division table
// with the final read count so replay knows the last window's extent.
func (e *Engine) finalizeRecord() {
	if e.Arch.State != StateRecord && e.Arch.State != StatePausedRecord {
		return
	}
	if len(e.seq) > 0 && (len(e.div) == 0 || uint64(len(e.seq))%e.Arch.WindowSize != 0) {
		e.appendDiv()
	}
	e.flushSeqBuffer()
	e.flushDivBuffer()
	e.Stats.SeqTableBytes = uint64(len(e.seq)) * SeqEntryBytes
	e.Stats.DivTableBytes = uint64(len(e.div)) * DivEntryBytes
}

// HandleMarker consumes the software interface (§IV, Table I). Wire it to
// the core's OnMarker hook. State transitions are mirrored to the
// telemetry tracer as spans (one per record/replay/paused episode), so a
// loaded trace shows exactly when each core recorded, replayed or sat
// paused across a context switch.
func (e *Engine) HandleMarker(rec trace.Record, cycle uint64) {
	prev := e.Arch.State
	e.handleMarker(rec, cycle)
	e.wake.Mark()
	if e.tel != nil && e.Arch.State != prev {
		if prev != StateIdle {
			e.tel.Span(e.telTrack, prev.String(), e.stateStart, cycle)
		}
		e.stateStart = cycle
	}
}

func (e *Engine) handleMarker(rec trace.Record, cycle uint64) {
	switch rec.Marker {
	case trace.MarkInit:
		e.Arch = ArchState{ASID: uint64(e.Core) + 1, WindowSize: e.DefaultWindow}
		e.resetRecordState()
		e.resetReplayState()
		e.seq = e.seq[:0]
		e.div = e.div[:0]
	case trace.MarkSeqTable:
		e.Arch.SeqTableBase = rec.Addr
		e.Arch.SeqTableCap = rec.Count / SeqEntryBytes
	case trace.MarkDivTable:
		e.Arch.DivTableBase = rec.Addr
		e.Arch.DivTableCap = rec.Count / DivEntryBytes
	case trace.MarkWindowSize:
		if rec.Count > 0 {
			e.Arch.WindowSize = rec.Count
		}
	case trace.MarkAddrBaseSet:
		_ = e.Arch.SetBoundary(int(rec.Aux), rec.Addr, rec.Count)
	case trace.MarkAddrBaseEnable:
		_ = e.Arch.EnableBoundary(int(rec.Aux))
	case trace.MarkAddrBaseDisable:
		_ = e.Arch.DisableBoundary(int(rec.Aux))
	case trace.MarkRecordStart:
		e.seq = e.seq[:0]
		e.div = e.div[:0]
		e.resetRecordState()
		e.Arch.State = StateRecord
	case trace.MarkReplay:
		e.closeDivergence()
		e.finalizeRecord()
		e.closeIteration()
		e.resetReplayState()
		e.Arch.State = StateReplay
		e.Stats.Replays++
		e.curStructRead = 0
	case trace.MarkPause:
		e.Stats.Pauses++
		switch e.Arch.State {
		case StateRecord:
			// Flush the on-chip buffers to memory but do NOT terminate
			// the tables: recording continues after resume (§IV-C).
			e.flushSeqBuffer()
			e.flushDivBuffer()
			e.Arch.State = StatePausedRecord
		case StateReplay:
			e.closeIteration()
			e.Arch.State = StatePausedReplay
		}
	case trace.MarkResume:
		e.Stats.Resumes++
		switch e.Arch.State {
		case StatePausedRecord:
			e.Arch.State = StateRecord
		case StatePausedReplay:
			e.Arch.State = StateReplay
		}
	case trace.MarkPrefetchEnd:
		e.closeDivergence()
		e.finalizeRecord()
		e.closeIteration()
		e.Arch.State = StateIdle
	case trace.MarkEnd:
		e.closeDivergence()
		e.finalizeRecord()
		e.closeIteration()
		e.Arch.State = StateIdle
		// The metadata storage is freed (§II: released as soon as the
		// phase ends); the footprint stats survive in Stats.
	}
}

func (e *Engine) resetRecordState() {
	e.curStructRead = 0
	e.seqBufCount = 0
	e.divBufCount = 0
	e.lastSeqPage = ^mem.Addr(0)
	e.lastDivPage = ^mem.Addr(0)
}

func (e *Engine) resetReplayState() {
	e.nextIdx = 0
	e.fetchedIdx = 0
	e.metaIssued = 0
	e.metaInFly = 0
	e.metaGen++ // orphan any in-flight metadata completions
	e.divFetched = 0
	e.divIssued = 0
	e.divInFly = 0
	e.curWindow = 0
	e.retryValid = false
	e.windowReads = 0
}

// closeIteration resolves the timeliness shadow map at an iteration
// boundary: anything prefetched-and-evicted that was never demanded is an
// out-of-window prefetch.
func (e *Engine) closeIteration() {
	clear(e.issuedThisIter)
	for line, st := range e.track {
		if st == trackEvicted {
			e.Stats.OutOfWindow++
		}
		delete(e.track, line)
	}
}

// OnCycle implements prefetch.CycleDriven: the replay engine (Fig. 4(b)).
func (e *Engine) OnCycle(cycle uint64, issue prefetch.IssueFunc) {
	if !e.replaying() {
		return
	}
	e.streamMetadata(cycle)
	e.advanceWindow()

	budget := maxIssuePerCycle
	for budget > 0 {
		if e.retryValid {
			if !issue(e.retryLine) {
				return
			}
			e.retryValid = false
			e.Stats.Prefetches++
			budget--
			continue
		}
		if !e.entryFetched() {
			return
		}
		// Skip entries whose window the program has already left: their
		// demand has passed, so prefetching them now is pure pollution.
		// (The hardware analogue: Cur Window jumped past the buffer head
		// after a stall; the buffer is advanced rather than drained.)
		if e.windowPassed() {
			skipTo := e.curWindow * int(e.Arch.WindowSize)
			// The last recorded window is usually partial, so Cur Window
			// can sit one past it and curWindow*W then points beyond the
			// table. Clamp before skipping: the unclamped value pushed
			// nextIdx past len(seq) and credited SkippedEntries for
			// phantom entries that were never recorded (flushed out by
			// the audit invariant nextIdx <= len(seq)).
			if skipTo > len(e.seq) {
				skipTo = len(e.seq)
			}
			e.Stats.SkippedEntries += uint64(skipTo - e.nextIdx)
			e.nextIdx = skipTo
			if !e.entryFetched() {
				return
			}
		}
		if !e.eligible(e.nextIdx) {
			return
		}
		line, ok := e.entryLine(e.seq[e.nextIdx])
		e.nextIdx++
		if !ok {
			continue
		}
		if _, seen := e.track[line]; !seen {
			e.track[line] = trackIssued
		}
		e.issuedThisIter[line] = true
		if !issue(line) {
			e.retryLine = line
			e.retryValid = true
			return
		}
		e.Stats.Prefetches++
		budget--
	}
}

// Wakeup implements prefetch.CycleDriven: it tests OnCycle's gates, the
// same predicates OnCycle, streamMetadata and advanceWindow call, and
// reports now+1 whenever any of them could make progress,
// mem.WakeupNever otherwise. Every predicate is a pure read of state
// that changes only inside OnCycle or where the engine sets its wake
// flag (PreAccess in replay, a metadata completion, HandleMarker,
// Restore), so "no branch can progress now" really means "no branch can
// progress until the flag is set".
func (e *Engine) Wakeup(now uint64) uint64 {
	if !e.replaying() {
		return mem.WakeupNever
	}
	if e.meta == nil {
		// Unit-test mode: streamMetadata snaps the fetch cursors forward.
		if e.fetchedIdx != len(e.seq) || e.divFetched != len(e.div) {
			return now + 1
		}
	} else if e.seqFetchDue() || e.divFetchDue() {
		// An enqueue that the metadata backend then rejects still
		// terminates: the cursors did not move, the backend drains, and
		// its completion re-triggers evaluation.
		return now + 1
	}
	// advanceWindow moves Cur Window, or a failed issue retries (and is
	// counted) every cycle.
	if e.windowDue() || e.retryValid {
		return now + 1
	}
	if e.entryFetched() && (e.windowPassed() || e.eligible(e.nextIdx)) {
		return now + 1
	}
	return mem.WakeupNever
}

// replaying reports whether the engine is replaying a recorded sequence:
// only then does OnCycle act.
func (e *Engine) replaying() bool { return e.Arch.State == StateReplay && len(e.seq) > 0 }

// seqFetchDue reports whether streamMetadata issues another
// sequence-table line read: a line slot is free, entries are left to
// fetch, and the fetch cursor is less than two buffers ahead of the
// prefetch pointer.
func (e *Engine) seqFetchDue() bool {
	return e.metaInFly < maxSeqLinesInFlight && e.metaIssued < len(e.seq) &&
		e.metaIssued-e.nextIdx < 2*SeqEntriesPerBuffer
}

// divFetchDue is seqFetchDue for the division table, whose cursor runs
// ahead of Cur Window.
func (e *Engine) divFetchDue() bool {
	return e.divInFly < maxDivLinesInFlight && e.divIssued < len(e.div) &&
		e.divIssued-e.curWindow < 2*DivEntriesPerBuffer
}

// windowDue reports whether advanceWindow moves Cur Window: the
// program's structure reads reached the current window's recorded end.
func (e *Engine) windowDue() bool {
	return e.curWindow < e.divFetched && e.curWindow < len(e.div) &&
		e.curStructRead >= e.div[e.curWindow]
}

// entryFetched reports whether the prefetch pointer sits on a sequence
// entry whose metadata has arrived.
func (e *Engine) entryFetched() bool { return e.nextIdx < len(e.seq) && e.nextIdx < e.fetchedIdx }

// windowPassed reports whether the prefetch pointer's entry lies in a
// window the program has already left, so OnCycle skips ahead to Cur
// Window.
func (e *Engine) windowPassed() bool {
	return e.Control != NoControl && e.Arch.WindowSize > 0 &&
		e.nextIdx/int(e.Arch.WindowSize) < e.curWindow
}

// entryLine reconstructs the prefetch address from a sequence entry and
// the *current* boundary base (Base+Offset, §IV-B).
func (e *Engine) entryLine(entry SeqEntry) (mem.Addr, bool) {
	slot := entry.Slot()
	if slot >= NumBoundarySlots || !e.Arch.Bounds[slot].Valid {
		return 0, false
	}
	base := mem.LineAddr(e.Arch.Bounds[slot].Base)
	return base + mem.Addr(entry.LineOff())<<mem.LineShift, true
}

// streamMetadata keeps the double-buffered sequence/division table reads
// ahead of the prefetch pointer (Fig. 4(b), step 5).
func (e *Engine) streamMetadata(cycle uint64) {
	if e.meta == nil {
		// Unit-test mode: metadata is instantly available.
		e.fetchedIdx = len(e.seq)
		e.divFetched = len(e.div)
		return
	}
	const entriesPerLine = mem.LineSize / SeqEntryBytes
	for e.seqFetchDue() {
		addr := e.Arch.SeqTableBase + mem.Addr(e.metaIssued*SeqEntryBytes)
		m := e.newMetaRead(addr, cycle, false)
		if !e.meta.TryEnqueue(&m.req) {
			e.metaFree = append(e.metaFree, m)
			break
		}
		e.metaIssued += entriesPerLine
		if e.metaIssued > len(e.seq) {
			e.metaIssued = len(e.seq)
		}
		e.metaInFly++
		if e.metaInFly == 1 {
			e.refillStart = cycle
		}
		e.Stats.MetaReadLines++
		if page := mem.HugeAddr(addr); page != e.lastSeqPage {
			e.lastSeqPage = page
			e.Stats.TLBLookups++
		}
	}

	const divPerLine = mem.LineSize / DivEntryBytes
	for e.divFetchDue() {
		addr := e.Arch.DivTableBase + mem.Addr(e.divIssued*DivEntryBytes)
		m := e.newMetaRead(addr, cycle, true)
		if !e.meta.TryEnqueue(&m.req) {
			e.metaFree = append(e.metaFree, m)
			break
		}
		e.divIssued += divPerLine
		if e.divIssued > len(e.div) {
			e.divIssued = len(e.div)
		}
		e.divInFly++
		e.Stats.MetaReadLines++
		if page := mem.HugeAddr(addr); page != e.lastDivPage {
			e.lastDivPage = page
			e.Stats.TLBLookups++
		}
	}
}

// advanceWindow moves Cur Window forward as the program's structure reads
// cross recorded window boundaries (Fig. 4(b), step 7).
func (e *Engine) advanceWindow() {
	for e.windowDue() {
		e.windowReads = e.div[e.curWindow]
		if e.diverge != nil {
			e.diverge.closeWindow(e.curWindow, e.windowSlice(e.curWindow))
		}
		e.curWindow++
	}
}

// eligible applies the timing control to sequence entry i.
//
// Window control is the paper's coarse gate: prefetch at most one window
// ahead of the program's progress (double buffering). Pace control
// additionally smooths issue inside the window — a prefetch per NPace
// structure reads — which here is expressed as a fine-grained consumption
// estimate plus a bounded lead, so prefetched lines spend a minimal time
// exposed to eviction before their demand arrives.
func (e *Engine) eligible(i int) bool {
	if e.Control == NoControl || e.Arch.WindowSize == 0 {
		return true
	}
	w := i / int(e.Arch.WindowSize)
	if w > e.curWindow+1 {
		return false // more than one window ahead: wait (both modes)
	}
	if e.Control == WindowControl {
		return true
	}
	lead := e.lead()
	if e.LeadReadsCap > 0 && e.curWindow < len(e.div) {
		// Convert the read cap into entries using this window's recorded
		// miss density (reads per entry).
		var start uint64
		if e.curWindow > 0 {
			start = e.div[e.curWindow-1]
		}
		span := int(e.div[e.curWindow] - start)
		W := int(e.Arch.WindowSize)
		if span > W && W > 0 {
			capEntries := e.LeadReadsCap * W / span
			if capEntries < 4 {
				capEntries = 4
			}
			if capEntries < lead {
				lead = capEntries
			}
		}
	}
	return i < e.consumedEstimate()+lead
}

// consumedEstimate interpolates how many sequence entries the program has
// consumed: completed windows plus the current window's fraction, derived
// from Cur Struct Read against the division table (the hardware's NPace
// arithmetic, §V-C).
func (e *Engine) consumedEstimate() int {
	W := int(e.Arch.WindowSize)
	if e.curWindow >= len(e.div) {
		return len(e.seq)
	}
	var start uint64
	if e.curWindow > 0 {
		start = e.div[e.curWindow-1]
	}
	span := e.div[e.curWindow] - start
	consumed := e.curWindow * W
	if span > 0 && e.curStructRead > start {
		frac := int((e.curStructRead - start) * uint64(W) / span)
		if frac > W {
			frac = W
		}
		consumed += frac
	}
	return consumed
}

// lead returns the pace-control prefetch distance in entries.
func (e *Engine) lead() int {
	if e.LeadEntries > 0 {
		return e.LeadEntries
	}
	return int(e.Arch.WindowSize)
}

// SetTelemetry attaches a recorder (nil disables) and the trace track
// this engine's spans are emitted on (e.g. "rnr.c0").
func (e *Engine) SetTelemetry(tel *telemetry.Recorder, track string) {
	e.tel = tel
	e.telTrack = track
}

// ReplayDistance is the replay-timeliness headline series: the prefetch
// cursor minus the consumption estimate, in sequence entries. Positive
// means replay runs ahead of the demand stream (healthy, bounded by the
// pace lead); values near zero or negative mean replay has fallen behind
// and prefetches arrive late. Zero outside replay.
func (e *Engine) ReplayDistance() int {
	if e.Arch.State != StateReplay {
		return 0
	}
	return e.nextIdx - e.consumedEstimate()
}

// WindowSlack is the headroom, in sequence entries, before the window
// gate (at most one window ahead, §V-B) would block the prefetch cursor.
// Zero outside replay or without window control.
func (e *Engine) WindowSlack() int {
	if e.Arch.State != StateReplay || e.Arch.WindowSize == 0 {
		return 0
	}
	limit := (e.curWindow + 2) * int(e.Arch.WindowSize)
	return limit - e.nextIdx
}

// PaceError is ReplayDistance minus the pace-control target lead:
// negative while replay is still catching up to its target distance,
// ~zero when pace control holds the cursor at the lead, positive only
// transiently. Zero outside replay.
func (e *Engine) PaceError() int {
	if e.Arch.State != StateReplay {
		return 0
	}
	return e.ReplayDistance() - e.lead()
}

// RegisterProbes registers this engine's sampled series under prefix
// (e.g. "rnr.c0."): the replay-cursor geometry above, the current window
// and the prefetch issue rate per sampled cycle. A nil recorder is a
// no-op.
func (e *Engine) RegisterProbes(tel *telemetry.Recorder, prefix string) {
	if tel == nil {
		return
	}
	tel.Probe(prefix+"replay_distance", func(uint64) float64 { return float64(e.ReplayDistance()) })
	tel.Probe(prefix+"window_slack", func(uint64) float64 { return float64(e.WindowSlack()) })
	tel.Probe(prefix+"pace_error", func(uint64) float64 { return float64(e.PaceError()) })
	tel.Probe(prefix+"cur_window", func(uint64) float64 { return float64(e.curWindow) })
	var lastPref uint64
	var lastCycle uint64
	tel.Probe(prefix+"prefetch_rate", func(cycle uint64) float64 {
		dp := e.Stats.Prefetches - lastPref
		dc := cycle - lastCycle
		lastPref, lastCycle = e.Stats.Prefetches, cycle
		if dc == 0 {
			return 0
		}
		return float64(dp) / float64(dc)
	})
	if e.diverge != nil {
		tel.Probe(prefix+"divergence", func(uint64) float64 { return e.diverge.LastScore() })
	}
}
