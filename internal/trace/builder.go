package trace

import "rnrsim/internal/mem"

// Builder accumulates a trace with small conveniences the workload
// generators want: adjacent Exec records coalesce, and the RnR software
// interface is exposed with the same shape as the paper's Table I so the
// workload code reads like Algorithm 1.
//
// Records go into fixed-size chunks rather than one growing slice: a
// growing slice copies every record again on each growth step (about
// four writes per record at the runtime's large-slice growth factor),
// while a chunk is never moved. Trace hands the chunks out as segments
// and copies only the last, partly filled one; Records joins them into
// one slice of exactly the trace's length. Either way each record is
// written at most twice.
//
// Append adds another trace's segments by reference. They are sealed:
// the builder never writes into them, so an Exec that follows starts a
// record of its own instead of merging into the appended last record.
type Builder struct {
	chunk  int        // records per chunk
	segs   [][]Record // segments in order: full chunks, runs cut off by Append, appended segments
	nSegs  int        // records in segs
	cur    []Record   // open run being filled; len(cur) < cap(cur) unless full
	sealed bool       // the last record came from Append or Trace: Exec must not merge into it
}

// defaultChunk is the chunk size when NewBuilder gets no usable hint.
const defaultChunk = 4096

// NewBuilder returns an empty trace builder. capacity sets the chunk
// size in records; a non-positive hint picks a default.
func NewBuilder(capacity int) *Builder {
	if capacity < 1 {
		capacity = defaultChunk
	}
	return &Builder{chunk: capacity}
}

// push appends r, starting a new chunk when the current one is full.
func (b *Builder) push(r Record) {
	if len(b.cur) == cap(b.cur) {
		b.newChunk()
	}
	b.cur = append(b.cur, r)
	b.sealed = false
}

func (b *Builder) newChunk() {
	b.seal()
	b.cur = make([]Record, 0, b.chunk)
}

// seal moves the open run's records to segs. The run keeps the rest of
// its chunk's capacity, so the records that follow share the chunk.
// Exec may still merge across it until Append or Trace sets b.sealed.
func (b *Builder) seal() {
	if n := len(b.cur); n > 0 {
		b.segs = append(b.segs, b.cur[:n:n])
		b.nSegs += n
		b.cur = b.cur[n:]
	}
}

// Exec appends n non-memory instructions, merging with a preceding Exec
// of the open run. A full chunk is only retired when the next record is
// pushed, so the preceding record is still cur's last element even
// across a chunk boundary.
func (b *Builder) Exec(n uint64) {
	if n == 0 {
		return
	}
	if k := len(b.cur); k > 0 && !b.sealed && b.cur[k-1].Kind == KindExec {
		b.cur[k-1].Count += n
		return
	}
	b.push(Exec(n))
}

// Append appends t's segments by reference, without copying them. The
// caller must not modify them afterwards, and no later append merges
// into them.
func (b *Builder) Append(t Trace) {
	b.seal()
	b.sealed = true
	for _, seg := range t {
		if len(seg) > 0 {
			b.segs = append(b.segs, seg)
			b.nSegs += len(seg)
		}
	}
}

// Load appends a load of size bytes at addr from site pc in region.
func (b *Builder) Load(pc uint64, addr mem.Addr, size uint64, region int32) {
	b.push(Load(pc, addr, size, region))
}

// Store appends a store of size bytes at addr from site pc in region.
func (b *Builder) Store(pc uint64, addr mem.Addr, size uint64, region int32) {
	b.push(Store(pc, addr, size, region))
}

// Mark appends an arbitrary marker record.
func (b *Builder) Mark(m Marker, addr mem.Addr, count uint64, aux int32) {
	b.push(Mark(m, addr, count, aux))
}

// RnRInit emits RnR.init() followed by the metadata table base registers.
// seq and div are the programmer-allocated metadata regions.
func (b *Builder) RnRInit(seq, div mem.Region, windowSize uint64) {
	b.Mark(MarkInit, 0, 0, 0)
	b.Mark(MarkSeqTable, seq.Base, seq.Size, 0)
	b.Mark(MarkDivTable, div.Base, div.Size, 0)
	if windowSize > 0 {
		b.Mark(MarkWindowSize, 0, windowSize, 0)
	}
}

// AddrBaseSet emits AddrBase.set(addr, size) into boundary slot.
func (b *Builder) AddrBaseSet(slot int, base mem.Addr, size uint64) {
	b.Mark(MarkAddrBaseSet, base, size, int32(slot))
}

// AddrBaseEnable emits AddrBase.enable(addr) for the boundary slot.
func (b *Builder) AddrBaseEnable(slot int) { b.Mark(MarkAddrBaseEnable, 0, 0, int32(slot)) }

// RecordStart emits PrefetchState.start().
func (b *Builder) RecordStart() { b.Mark(MarkRecordStart, 0, 0, 0) }

// Replay emits PrefetchState.replay().
func (b *Builder) Replay() { b.Mark(MarkReplay, 0, 0, 0) }

// PrefetchEnd emits PrefetchState.end().
func (b *Builder) PrefetchEnd() { b.Mark(MarkPrefetchEnd, 0, 0, 0) }

// RnREnd emits RnR.end(), releasing the metadata storage.
func (b *Builder) RnREnd() { b.Mark(MarkEnd, 0, 0, 0) }

// IterBegin / IterEnd bracket workload iteration it.
func (b *Builder) IterBegin(it int) { b.Mark(MarkIterBegin, 0, 0, int32(it)) }

// IterEnd closes workload iteration it.
func (b *Builder) IterEnd(it int) { b.Mark(MarkIterEnd, 0, 0, int32(it)) }

// ROIBegin / ROIEnd bracket the measured region of interest.
func (b *Builder) ROIBegin() { b.Mark(MarkROIBegin, 0, 0, 0) }

// ROIEnd closes the measured region of interest.
func (b *Builder) ROIEnd() { b.Mark(MarkROIEnd, 0, 0, 0) }

// Records returns the accumulated trace as one slice with cap == len.
// The first call after an append joins the segments, appended ones
// included; the builder then keeps the joined slice as its only chunk,
// so a repeated call returns it without copying. The slice is the
// builder's own storage: a later Exec may still merge into its last
// record, unless that record came from Append or Trace.
func (b *Builder) Records() []Record {
	if len(b.segs) == 0 && len(b.cur) == cap(b.cur) {
		return b.cur
	}
	out := make([]Record, b.Len())
	n := 0
	for _, seg := range b.segs {
		n += copy(out[n:], seg)
	}
	copy(out[n:], b.cur)
	b.segs, b.nSegs, b.cur = nil, 0, out
	return out
}

// Trace returns the accumulated trace as segments, without joining
// them: full chunks and appended segments by reference, and the open
// run cut to its exact length (copied unless it already fills its
// chunk), so the trace holds no spare chunk capacity. Every segment is
// then sealed: records appended later start a new chunk, and an Exec
// does not merge into the last record.
func (b *Builder) Trace() Trace {
	if n := len(b.cur); n > 0 {
		run := b.cur
		if n < cap(run) {
			run = make([]Record, n)
			copy(run, b.cur)
		}
		b.segs = append(b.segs, run)
		b.nSegs += n
	}
	b.cur, b.sealed = nil, true
	return Trace(b.segs[:len(b.segs):len(b.segs)])
}

// Source returns a Source over the accumulated trace (see Records).
func (b *Builder) Source() *SliceSource { return NewSliceSource(b.Records()) }

// Len returns the number of records (not instructions) accumulated.
func (b *Builder) Len() int { return b.nSegs + len(b.cur) }

func instructions(recs []Record) uint64 {
	var n uint64
	for _, r := range recs {
		n += r.Instructions()
	}
	return n
}
