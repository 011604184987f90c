// Package trace defines the instruction trace format that connects the
// workload generators (internal/apps) to the trace-driven core model
// (internal/cpu).
//
// A trace is the retired dynamic instruction stream of one hardware thread.
// Memory instructions carry a virtual address and a synthetic PC that
// identifies the static access site (prefetchers key on it). Stretches of
// non-memory work are compressed into Exec records carrying an instruction
// count. Calls into the RnR software interface (paper §IV, Table I) appear
// in-band as Marker records, exactly like the register writes they model.
package trace

import (
	"encoding/json"
	"fmt"
	"slices"

	"rnrsim/internal/mem"
)

// Kind discriminates trace records.
type Kind uint8

const (
	// KindExec is a bundle of Count non-memory instructions.
	KindExec Kind = iota
	// KindLoad is one load instruction reading Size bytes at Addr.
	KindLoad
	// KindStore is one store instruction writing Size bytes at Addr.
	KindStore
	// KindMarker is an RnR software-interface call (see Marker).
	KindMarker
)

var kindNames = [...]string{"exec", "load", "store", "marker"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Marker enumerates the RnR function calls of Table I plus iteration and
// region-of-interest bracketing used by the harness.
type Marker uint8

const (
	MarkNone Marker = iota

	// MarkInit models RnR.init(): sets the ASID, allocates the sequence
	// and division tables (their bases travel in Addr/Aux of two following
	// MarkSeqTable/MarkDivTable records) and resets the default window.
	MarkInit
	// MarkSeqTable publishes the sequence-table base register (Addr) and
	// capacity in entries (Count).
	MarkSeqTable
	// MarkDivTable publishes the division-table base register (Addr) and
	// capacity in entries (Count).
	MarkDivTable
	// MarkAddrBaseSet models AddrBase.set(addr, size): Addr carries the
	// base, Count the size in bytes, Aux the boundary-register slot.
	MarkAddrBaseSet
	// MarkAddrBaseEnable / MarkAddrBaseDisable toggle the boundary slot in
	// Aux. Addr repeats the base for cross-checking.
	MarkAddrBaseEnable
	MarkAddrBaseDisable
	// MarkWindowSize models WindowSize.set(size): Count is the new window
	// size in recorded misses.
	MarkWindowSize
	// MarkRecordStart models PrefetchState.start(): begin recording.
	MarkRecordStart
	// MarkReplay models PrefetchState.replay(): stop recording (if active)
	// and start replaying from the beginning of the stored sequence.
	MarkReplay
	// MarkPause / MarkResume model PrefetchState.pause()/resume().
	MarkPause
	MarkResume
	// MarkPrefetchEnd models PrefetchState.end(): disable RnR.
	MarkPrefetchEnd
	// MarkEnd models RnR.end(): free the metadata storage.
	MarkEnd

	// MarkIterBegin / MarkIterEnd bracket one workload iteration (Aux is
	// the iteration number). The harness uses them for per-iteration IPC.
	MarkIterBegin
	MarkIterEnd
	// MarkROIBegin / MarkROIEnd bracket the measured region of interest.
	MarkROIBegin
	MarkROIEnd
)

var markerNames = [...]string{
	"none", "init", "seqtable", "divtable", "addrbase.set",
	"addrbase.enable", "addrbase.disable", "windowsize.set",
	"state.start", "state.replay", "state.pause", "state.resume",
	"state.end", "rnr.end", "iter.begin", "iter.end", "roi.begin", "roi.end",
}

func (m Marker) String() string {
	if int(m) < len(markerNames) {
		return markerNames[m]
	}
	return fmt.Sprintf("marker(%d)", uint8(m))
}

// Record is one trace entry. The meaning of Addr/Count/Aux depends on Kind
// and Marker as documented on the constants above. The fields are
// ordered widest first so the record packs into 32 bytes, the size of
// its on-disk form; TestRecordIs32Bytes holds it there.
type Record struct {
	PC     uint64   // static access-site id for loads/stores
	Addr   mem.Addr // byte address (loads/stores) or marker operand
	Count  uint64   // bytes (loads/stores), instructions (exec), operand (markers)
	Aux    int32    // region id for loads/stores (-1 unknown), slot/iter for markers
	Kind   Kind
	Marker Marker
}

// Exec returns a bundle of n non-memory instructions.
func Exec(n uint64) Record { return Record{Kind: KindExec, Count: n} }

// Load returns a load record of size bytes at addr issued from site pc.
func Load(pc uint64, addr mem.Addr, size uint64, region int32) Record {
	return Record{Kind: KindLoad, PC: pc, Addr: addr, Count: size, Aux: region}
}

// Store returns a store record of size bytes at addr issued from site pc.
func Store(pc uint64, addr mem.Addr, size uint64, region int32) Record {
	return Record{Kind: KindStore, PC: pc, Addr: addr, Count: size, Aux: region}
}

// Mark returns a marker record.
func Mark(m Marker, addr mem.Addr, count uint64, aux int32) Record {
	return Record{Kind: KindMarker, Marker: m, Addr: addr, Count: count, Aux: aux}
}

// Instructions returns how many dynamic instructions the record represents.
// Markers are architectural register writes and count as one instruction,
// mirroring the paper's "light instruction overhead" claim.
func (r Record) Instructions() uint64 {
	switch r.Kind {
	case KindExec:
		return r.Count
	default:
		return 1
	}
}

func (r Record) String() string {
	switch r.Kind {
	case KindExec:
		return fmt.Sprintf("exec x%d", r.Count)
	case KindLoad, KindStore:
		return fmt.Sprintf("%s pc=%#x addr=%#x size=%d region=%d", r.Kind, r.PC, uint64(r.Addr), r.Count, r.Aux)
	case KindMarker:
		return fmt.Sprintf("marker %s addr=%#x count=%d aux=%d", r.Marker, uint64(r.Addr), r.Count, r.Aux)
	}
	return fmt.Sprintf("record(%d)", r.Kind)
}

// Source yields trace records one at a time. Implementations may generate
// records lazily to keep memory bounded.
type Source interface {
	// Next returns the next record. ok is false once the trace is drained.
	Next() (rec Record, ok bool)
}

// Trace is one hardware thread's trace as an ordered list of record
// segments: its record stream is the records of every segment in order.
// A segment may occur several times, so a loop body that every
// iteration runs is stored once (see Builder.Append). Segments are
// read-only once they are in a Trace, and two segments either are the
// same slice or share no record.
type Trace [][]Record

// Len returns the number of records in the stream, counting a segment
// once per occurrence.
func (t Trace) Len() int {
	n := 0
	for _, seg := range t {
		n += len(seg)
	}
	return n
}

// Instructions returns the dynamic instruction count of the stream.
func (t Trace) Instructions() uint64 {
	var n uint64
	for _, seg := range t {
		n += instructions(seg)
	}
	return n
}

// Records returns the stream as one new slice, every occurrence of a
// segment written out; nil when the stream is empty.
func (t Trace) Records() []Record { return slices.Concat(t...) }

// MarshalJSON encodes t as the JSON array of its record stream, the
// bytes the same records give as one []Record.
func (t Trace) MarshalJSON() ([]byte, error) { return json.Marshal(t.Records()) }

// Source returns a Source that replays t's record stream in order.
func (t Trace) Source() *SliceSource { return NewSliceSource(t...) }

// SliceSource is the Source over in-memory record segments: it walks
// the segments in order and each segment's records in order.
type SliceSource struct {
	segs [][]Record
	seg  int      // index in segs of cur
	cur  []Record // segment being read
	pos  int      // next record in cur
}

// NewSliceSource returns a Source that replays the records of segs in
// order; NewSliceSource(recs) replays one slice.
func NewSliceSource(segs ...[]Record) *SliceSource {
	s := &SliceSource{segs: segs}
	s.Reset()
	return s
}

// Next implements Source. Within a segment it costs one bounds check;
// only a segment's end reaches nextSegment.
func (s *SliceSource) Next() (Record, bool) {
	if s.pos < len(s.cur) {
		r := s.cur[s.pos]
		s.pos++
		return r, true
	}
	return s.nextSegment()
}

// nextSegment moves to the next nonempty segment and returns its first
// record, or reports the trace drained.
func (s *SliceSource) nextSegment() (Record, bool) {
	for s.seg+1 < len(s.segs) {
		s.seg++
		s.cur, s.pos = s.segs[s.seg], 0
		if len(s.cur) > 0 {
			s.pos = 1
			return s.cur[0], true
		}
	}
	return Record{}, false
}

// Reset rewinds the source to the beginning of the trace.
func (s *SliceSource) Reset() { s.seg, s.cur, s.pos = -1, nil, 0 }
