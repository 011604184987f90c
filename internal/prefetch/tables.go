package prefetch

import (
	"rnrsim/internal/cache"
	"rnrsim/internal/mem"
)

// The bounded on-chip structures the baseline prefetchers share: a FIFO
// table, the circular miss history of the temporal prefetchers and the
// region-generation tracker of the spatial ones.

// fifoTable is a table of at most limit entries that evicts its oldest
// insertion when full. Updating a present key leaves its age unchanged.
// It grows lazily: a short run never allocates the full bound.
type fifoTable[K comparable, V any] struct {
	m     map[K]V
	order []K // insertion order once full, oldest at pos
	pos   int
	limit int
}

func newFIFOTable[K comparable, V any](limit int) fifoTable[K, V] {
	return fifoTable[K, V]{m: make(map[K]V), limit: limit}
}

func (t *fifoTable[K, V]) get(k K) (V, bool) {
	v, ok := t.m[k]
	return v, ok
}

func (t *fifoTable[K, V]) has(k K) bool {
	_, ok := t.m[k]
	return ok
}

// put stores v under k, inserting k (and evicting the oldest insertion
// when full) if it is absent.
func (t *fifoTable[K, V]) put(k K, v V) {
	if _, ok := t.m[k]; !ok {
		if len(t.order) < t.limit {
			t.order = append(t.order, k)
		} else {
			delete(t.m, t.order[t.pos])
			t.order[t.pos] = k
			t.pos = (t.pos + 1) % t.limit
		}
	}
	t.m[k] = v
}

// missRing is a circular global history of miss lines with an index from
// each line to the slot of its latest record, as GHB and Domino keep it.
type missRing struct {
	buf   []mem.Addr
	pos   int // next slot written
	count int
	last  map[mem.Addr]int // line -> slot of its latest record
}

func newMissRing(size, indexHint int) missRing {
	return missRing{buf: make([]mem.Addr, size), last: make(map[mem.Addr]int, indexHint)}
}

// after returns the slot following line's latest record, if indexed.
func (r *missRing) after(line mem.Addr) (int, bool) {
	at, ok := r.last[line]
	return (at + 1) % len(r.buf), ok
}

// record appends line. Overwriting a slot deletes the overwritten
// line's index entry even when that line was recorded again later and
// its entry points elsewhere; the finite hardware table loses such
// entries too, and the baselines' results depend on it.
func (r *missRing) record(line mem.Addr) {
	if r.count == len(r.buf) {
		delete(r.last, r.buf[r.pos])
	} else {
		r.count++
	}
	r.buf[r.pos] = line
	r.last[line] = r.pos
	r.pos = (r.pos + 1) % len(r.buf)
}

// successors issues up to n recorded lines starting at slot from,
// stopping at an unwritten slot or at the write position.
func (r *missRing) successors(from, n int, issue IssueFunc) {
	for i := 0; i < n; i++ {
		at := (from + i) % len(r.buf)
		if at == r.pos || r.count < len(r.buf) && at > r.pos {
			return
		}
		issue(r.buf[at])
	}
}

// Spatial-region geometry shared by Bingo and SteMS: 2 KB regions, as in
// the Bingo paper and SMS, so a footprint fits a 32-bit line bitmap.
const (
	regionBytes = 2048
	regionLines = regionBytes / mem.LineSize
	// regionActiveMax bounds the live generations, as hardware's
	// accumulation table does.
	regionActiveMax = 256
)

// regionGen is one live generation of a spatial region: the footprint
// accumulated since its trigger access. One is allocated per trigger, so
// its fields pack into 32 bytes.
type regionGen struct {
	footprint uint64 // bit per line in the region
	trigPC    uint64
	seq       uint64 // trigger order: the bound retires the lowest
	trigOff   uint32
	touches   int32
}

// footprintHistory is what a spatial prefetcher learns from and predicts
// with; regionTracker calls it at the start and end of each generation.
type footprintHistory interface {
	// trigger runs on the first access of a new generation.
	trigger(pc uint64, region mem.Addr, off uint, issue IssueFunc)
	// store runs when a generation retires; every retired generation
	// has been touched, so its footprint is nonzero.
	store(region mem.Addr, g *regionGen)
}

// regionTracker follows the live generation of each spatial region.
type regionTracker struct {
	active map[mem.Addr]*regionGen // region base -> current generation
	seq    uint64
}

func newRegionTracker() regionTracker {
	return regionTracker{active: make(map[mem.Addr]*regionGen)}
}

// access adds ev to its region's generation, opening one (and calling
// h.trigger) if the region has none. Past regionActiveMax live
// generations it retires the one triggered earliest; a generation also
// retires after 2×regionLines touches, since hardware closes it on
// region eviction, which a footprint table cannot see.
func (t *regionTracker) access(ev cache.AccessInfo, issue IssueFunc, h footprintHistory) {
	region := ev.Line &^ (regionBytes - 1)
	off := uint(uint64(ev.Line-region) >> mem.LineShift)

	g, ok := t.active[region]
	if !ok {
		g = &regionGen{trigPC: ev.PC, trigOff: uint32(off), seq: t.seq}
		t.seq++
		t.active[region] = g
		h.trigger(ev.PC, region, off, issue)
		if len(t.active) > regionActiveMax {
			t.retireOldest(h)
		}
	}
	g.footprint |= 1 << off
	g.touches++
	if g.touches >= regionLines*2 {
		t.retire(region, h)
	}
}

// retire ends region's live generation, if any, and stores it in h.
func (t *regionTracker) retire(region mem.Addr, h footprintHistory) {
	if g, ok := t.active[region]; ok {
		delete(t.active, region)
		h.store(region, g)
	}
}

// retireOldest retires the generation with the earliest trigger. The
// scan visits the map in Go's random order, but the minimum is unique.
func (t *regionTracker) retireOldest(h footprintHistory) {
	var oldest mem.Addr
	first := ^uint64(0)
	for base, g := range t.active {
		if g.seq < first {
			oldest, first = base, g.seq
		}
	}
	t.retire(oldest, h)
}

// regionKey is the PC+address event that names a region generation.
func regionKey(pc uint64, region mem.Addr) uint64 {
	return pc*0x9e3779b97f4a7c15 ^ uint64(region)
}

// offsetKey is Bingo's shorter PC+offset event.
func offsetKey(pc uint64, off uint) uint64 {
	return pc*0x9e3779b97f4a7c15 ^ uint64(off)<<1 ^ 1
}
