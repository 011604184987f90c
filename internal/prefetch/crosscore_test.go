package prefetch

import (
	"testing"

	"rnrsim/internal/cache"
	"rnrsim/internal/mem"
)

func ccMiss(core int, line mem.Addr) cache.AccessInfo {
	return cache.AccessInfo{Core: core, Line: line, Type: mem.ReqLoad}
}

func TestCrossCoreTrainsAndIssuesAcrossCores(t *testing.T) {
	p := NewCrossCore(2)
	var issued []struct {
		core int
		line mem.Addr
	}
	p.Issue = func(core int, line mem.Addr) bool {
		issued = append(issued, struct {
			core int
			line mem.Addr
		}{core, line})
		return true
	}

	// Core 0 records the pattern A -> B twice.
	a, b := mem.Addr(0x1000), mem.Addr(0x2040)
	p.OnMiss(ccMiss(0, a))
	p.OnMiss(ccMiss(0, b))
	if p.Stats.Trained != 1 {
		t.Fatalf("trained = %d, want 1", p.Stats.Trained)
	}

	// Core 1 now misses on A: the shared table must predict B for it.
	issued = issued[:0]
	p.OnMiss(ccMiss(1, a))
	if len(issued) != 1 || issued[0].core != 1 || issued[0].line != b {
		t.Fatalf("cross-core prediction = %v, want [{1 %#x}]", issued, uint64(b))
	}
	if p.Stats.Lookups != 1 || p.Stats.Issued != 1 {
		t.Fatalf("stats = %+v, want 1 lookup / 1 issued", p.Stats)
	}
}

func TestCrossCorePerCoreTrainingContexts(t *testing.T) {
	p := NewCrossCore(2)
	p.Issue = func(int, mem.Addr) bool { return true }

	// Interleaved miss streams: core 0 sees A,B and core 1 sees X,Y.
	// Per-core contexts must train A->B and X->Y, never A->Y or X->B.
	a, b := mem.Addr(0x1000), mem.Addr(0x2000)
	x, y := mem.Addr(0x8000), mem.Addr(0x9000)
	p.OnMiss(ccMiss(0, a))
	p.OnMiss(ccMiss(1, x))
	p.OnMiss(ccMiss(0, b))
	p.OnMiss(ccMiss(1, y))

	for _, want := range []struct{ trig, next mem.Addr }{{a, b}, {x, y}} {
		e := &p.table[p.index(want.trig)]
		if e.filled == 0 || e.trigger != want.trig || e.next[0] != want.next {
			t.Fatalf("entry for %#x = %+v, want next %#x",
				uint64(want.trig), *e, uint64(want.next))
		}
	}
}

func TestCrossCoreMRUPairAndDegree(t *testing.T) {
	p := NewCrossCore(1)
	var issued []mem.Addr
	p.Issue = func(_ int, line mem.Addr) bool {
		issued = append(issued, line)
		return true
	}

	// Trigger A is followed by B, then by C: the entry keeps both with
	// C as MRU, and a later miss on A issues C then B.
	a, b, c := mem.Addr(0x1000), mem.Addr(0x2000), mem.Addr(0x3000)
	for _, seq := range [][2]mem.Addr{{a, b}, {a, c}} {
		p.OnMiss(ccMiss(0, seq[0]))
		p.OnMiss(ccMiss(0, seq[1]))
	}
	issued = issued[:0]
	p.OnMiss(ccMiss(0, a))
	if len(issued) != 2 || issued[0] != c || issued[1] != b {
		t.Fatalf("issued = %v, want [%#x %#x]", issued, uint64(c), uint64(b))
	}

	// A third successor D displaces the LRU one: a miss on A issues D
	// then C, never B.
	d := mem.Addr(0x4000)
	p.OnMiss(ccMiss(0, d))
	p.OnMiss(ccMiss(0, a))
	issued = issued[:0]
	p.hasLast[0] = false
	p.OnMiss(ccMiss(0, a))
	if len(issued) != 2 || issued[0] != d || issued[1] != c {
		t.Fatalf("issued = %v, want [%#x %#x]", issued, uint64(d), uint64(c))
	}
}

func TestCrossCoreHashStateTracksTraining(t *testing.T) {
	hash := func(p *CrossCore) uint64 {
		var h uint64 = 1469598103934665603
		p.HashState(func(v uint64) {
			h = (h ^ v) * 1099511628211
		})
		return h
	}
	p, q := NewCrossCore(2), NewCrossCore(2)
	if hash(p) != hash(q) {
		t.Fatal("fresh tables hash differently")
	}
	p.OnMiss(ccMiss(0, 0x1000))
	p.OnMiss(ccMiss(0, 0x2000))
	if hash(p) == hash(q) {
		t.Fatal("training did not change the state hash")
	}
	q.OnMiss(ccMiss(0, 0x1000))
	q.OnMiss(ccMiss(0, 0x2000))
	if hash(p) != hash(q) {
		t.Fatal("identical histories hash differently")
	}
}

func TestCrossCoreNilIssueCountsDropped(t *testing.T) {
	p := NewCrossCore(1)
	p.OnMiss(ccMiss(0, 0x1000))
	p.OnMiss(ccMiss(0, 0x2000))
	p.OnMiss(ccMiss(0, 0x1000))
	if p.Stats.Dropped != 1 || p.Stats.Issued != 0 {
		t.Fatalf("stats = %+v, want 1 dropped / 0 issued", p.Stats)
	}
}
