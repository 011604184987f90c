package prefetch

import (
	"slices"
	"testing"

	"rnrsim/internal/mem"
)

func TestBestOffsetLearnsConstantStride(t *testing.T) {
	p := NewBestOffset()
	c := &collector{}
	// Miss stream with stride 3 lines: after a learning round the elected
	// offset should be 3 and prefetches should land at +3.
	for i := 0; i < 600; i++ {
		p.OnAccess(access(1, mem.Addr(0x10000+i*3*mem.LineSize), false), c.issue)
	}
	if p.current != 3 {
		t.Fatalf("elected offset %d, want 3", p.current)
	}
	last := mem.Addr(0x10000 + 599*3*mem.LineSize)
	if !c.has(last + 3*mem.LineSize) {
		t.Error("no prefetch at the elected offset")
	}
}

func TestBestOffsetDisablesOnRandom(t *testing.T) {
	p := NewBestOffset()
	c := &collector{}
	// A pseudo-random miss stream with no repeatable offset: after enough
	// rounds the prefetcher should elect "off" (current == 0).
	x := uint64(12345)
	for i := 0; i < 4096; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		p.OnAccess(access(1, mem.Addr((x>>20)&0xffffff)<<mem.LineShift, false), c.issue)
	}
	if p.current != 0 {
		t.Errorf("random stream elected offset %d, want 0 (off)", p.current)
	}
}

func TestDominoDisambiguatesSharedAddress(t *testing.T) {
	// The §II example: 9 is followed by 12 in one context and 20 in
	// another. A pair-indexed temporal prefetcher can tell them apart when
	// the *preceding* miss differs; GHB cannot.
	p := NewDomino()
	line := func(a int) mem.Addr { return mem.Addr(a * mem.LineSize) }
	c := &collector{}
	// Context A: 1, 9, 12. Context B: 2, 9, 20. Twice each to train pairs.
	for i := 0; i < 2; i++ {
		for _, a := range []int{1, 9, 12} {
			p.OnAccess(access(1, line(a), false), c.issue)
		}
		for _, a := range []int{2, 9, 20} {
			p.OnAccess(access(1, line(a), false), c.issue)
		}
	}
	// Replay context A's prefix: after (1, 9) the next miss predicted
	// must be 12, followed by what came after it last time (context B's
	// 2, 9, 20); the single address 9 would have predicted 20 first.
	p.OnAccess(access(1, line(1), false), c.issue)
	c.lines = nil
	p.OnAccess(access(1, line(9), false), c.issue)
	want := []mem.Addr{line(12), line(2), line(9), line(20)}
	if !slices.Equal(c.lines, want[:dominoDegree]) {
		t.Errorf("pair (1,9) issued %v, want %v", c.lines, want[:dominoDegree])
	}
}

func TestDominoFallsBackToSingleAddress(t *testing.T) {
	p := NewDomino()
	line := func(a int) mem.Addr { return mem.Addr(a * mem.LineSize) }
	c := &collector{}
	for _, a := range []int{5, 6, 7} {
		p.OnAccess(access(1, line(a), false), c.issue)
	}
	// A cold pair (99, 6): the one-address index should still predict 7.
	c.lines = nil
	p.OnAccess(access(1, line(99), false), c.issue)
	p.OnAccess(access(1, line(6), false), c.issue)
	if len(c.lines) == 0 || c.lines[0] != line(7) {
		t.Errorf("single-address fallback issued %v, want 7 first", c.lines)
	}
}

func TestDominoNoTrainOnHits(t *testing.T) {
	p := NewDomino()
	c := &collector{}
	p.OnAccess(access(1, 0x1000, true), c.issue)
	p.OnAccess(access(1, 0x2000, true), c.issue)
	if len(c.lines) != 0 || p.count != 0 {
		t.Error("Domino trained on hits")
	}
}

func TestBestOffsetNegativeOffsets(t *testing.T) {
	p := NewBestOffset()
	c := &collector{}
	// Descending stream: stride -1 line. The candidate list includes -1.
	base := 0x800 * mem.LineSize
	for i := 0; i < 800; i++ {
		p.OnAccess(access(1, mem.Addr(base-i*mem.LineSize), false), c.issue)
	}
	if p.current != -1 && p.current != -2 {
		t.Errorf("descending stream elected %d, want negative", p.current)
	}
}
