package prefetch

import (
	"slices"
	"testing"

	"rnrsim/internal/cache"
	"rnrsim/internal/mem"
)

// collector gathers issued prefetch lines.
type collector struct{ lines []mem.Addr }

func (c *collector) issue(line mem.Addr) bool {
	c.lines = append(c.lines, line)
	return true
}

func (c *collector) has(line mem.Addr) bool {
	for _, l := range c.lines {
		if l == line {
			return true
		}
	}
	return false
}

func access(pc uint64, line mem.Addr, hit bool) cache.AccessInfo {
	return cache.AccessInfo{PC: pc, Line: mem.LineAddr(line), Hit: hit, Type: mem.ReqLoad, RegionID: -1}
}

func TestNextLineDegree(t *testing.T) {
	p := NewNextLine()
	c := &collector{}
	p.OnAccess(access(1, 0x1000, false), c.issue)
	if !slices.Equal(c.lines, []mem.Addr{0x1040}) {
		t.Errorf("issued %#v, want [0x1040]", c.lines)
	}
}

// TestNextLinePrefetchesOnHits: the baseline triggers on every demand
// access, hits included.
func TestNextLinePrefetchesOnHits(t *testing.T) {
	p := NewNextLine()
	c := &collector{}
	p.OnAccess(access(1, 0x1000, true), c.issue)
	if !slices.Equal(c.lines, []mem.Addr{0x1040}) {
		t.Errorf("issued %#v on a hit, want [0x1040]", c.lines)
	}
}

func TestStreamDetectsStride(t *testing.T) {
	p := NewStream()
	c := &collector{}
	// Stride of 2 lines from one PC.
	for i := 0; i < 6; i++ {
		p.OnAccess(access(42, mem.Addr(0x1000+i*128), false), c.issue)
	}
	if len(c.lines) == 0 {
		t.Fatal("stream never triggered on a constant stride")
	}
	// All issued lines must continue the stride pattern (multiples of 128
	// from base).
	for _, l := range c.lines {
		if (uint64(l)-0x1000)%128 != 0 {
			t.Errorf("off-stride prefetch %#x", uint64(l))
		}
	}
	// It must run *ahead* of the demand stream.
	maxDemand := mem.Addr(0x1000 + 5*128)
	ahead := false
	for _, l := range c.lines {
		if l > maxDemand {
			ahead = true
		}
	}
	if !ahead {
		t.Error("stream never ran ahead of demand")
	}
}

func TestStreamIgnoresRandom(t *testing.T) {
	p := NewStream()
	c := &collector{}
	addrs := []mem.Addr{0x1000, 0x9040, 0x2080, 0xe000, 0x33c0, 0x7100}
	for _, a := range addrs {
		p.OnAccess(access(42, a, false), c.issue)
	}
	if len(c.lines) != 0 {
		t.Errorf("stream prefetched %d lines on random accesses", len(c.lines))
	}
}

func TestStreamTableEviction(t *testing.T) {
	p := NewStream()
	c := &collector{}
	for pc := uint64(0); pc < 2*streamEntries; pc++ {
		p.OnAccess(access(pc, mem.Addr(0x1000*pc), false), c.issue)
	}
	if len(p.table) != streamEntries || len(p.order) != streamEntries {
		t.Errorf("table holds %d entries (%d in LRU order), want the cap %d",
			len(p.table), len(p.order), streamEntries)
	}
	// The oldest PCs were evicted, the newest kept.
	if _, ok := p.table[0]; ok {
		t.Error("oldest PC survived eviction")
	}
	if _, ok := p.table[2*streamEntries-1]; !ok {
		t.Error("newest PC was evicted")
	}
}

func TestGHBReplaysSuccessors(t *testing.T) {
	p := NewGHB()
	c := &collector{}
	seq := []mem.Addr{0x1000, 0x5000, 0x2000, 0x9000, 0x3000}
	for _, a := range seq {
		p.OnAccess(access(1, a, false), c.issue)
	}
	if len(c.lines) != 0 {
		t.Fatalf("GHB issued %v before any repetition", c.lines)
	}
	// Repeat the first address: successors 0x5000.. should be prefetched.
	p.OnAccess(access(1, 0x1000, false), c.issue)
	if !c.has(0x5000) || !c.has(0x2000) {
		t.Errorf("GHB did not replay successors, issued %v", c.lines)
	}
}

func TestGHBPicksMostRecentSuccessor(t *testing.T) {
	// The paper's §II example: 9 is followed by 12 and later by 20; the
	// GHB must predict the most recent successor (20), a misprediction
	// against the repeating pattern.
	p := NewGHB()
	c := &collector{}
	lines := func(a int) mem.Addr { return mem.Addr(a * mem.LineSize) }
	for _, a := range []int{9, 12, 9, 20} {
		p.OnAccess(access(1, lines(a), false), c.issue)
	}
	c.lines = nil
	p.OnAccess(access(1, lines(9), false), c.issue)
	if len(c.lines) == 0 || c.lines[0] != lines(20) || c.has(lines(12)) {
		t.Errorf("GHB issued %v, want most recent successor %#x first", c.lines, uint64(lines(20)))
	}
}

func TestGHBNoPrefetchOnHits(t *testing.T) {
	p := NewGHB()
	c := &collector{}
	p.OnAccess(access(1, 0x1000, true), c.issue)
	p.OnAccess(access(1, 0x1000, true), c.issue)
	if len(c.lines) != 0 {
		t.Errorf("GHB trained on hits: %v", c.lines)
	}
}

func TestMISBLocalisedReplay(t *testing.T) {
	p := NewMISB()
	c := &collector{}
	// Two interleaved PC streams; MISB must keep them apart.
	a := []mem.Addr{0x10000, 0x50000, 0x20000}
	b := []mem.Addr{0x90000, 0x30000, 0x70000}
	for i := 0; i < 3; i++ {
		p.OnAccess(access(1, a[i], false), c.issue)
		p.OnAccess(access(2, b[i], false), c.issue)
	}
	c.lines = nil
	p.OnAccess(access(1, a[0], false), c.issue)
	if !c.has(a[1]) {
		t.Errorf("MISB did not replay PC-1 stream: %v", c.lines)
	}
	if c.has(b[0]) || c.has(b[1]) {
		t.Errorf("MISB leaked PC-2 stream into PC-1 replay: %v", c.lines)
	}
}

func TestMISBMetadataTraffic(t *testing.T) {
	p := NewMISB()
	reads, writes := 0, 0
	p.Meta = func(write bool, addr mem.Addr) {
		if write {
			writes++
		} else {
			reads++
		}
	}
	c := &collector{}
	for i := 0; i < 64; i++ {
		p.OnAccess(access(uint64(i%4), mem.Addr(0x100000+i*0x4000), false), c.issue)
	}
	if reads == 0 || writes == 0 {
		t.Errorf("metadata traffic reads=%d writes=%d, want > 0", reads, writes)
	}
}

// TestMISBMetadataCacheCap drives more distinct metadata lines than the
// on-chip metadata cache holds: it stays at its cap, and a line evicted
// from it costs a fresh off-chip read when touched again.
func TestMISBMetadataCacheCap(t *testing.T) {
	p := NewMISB()
	reads := 0
	p.Meta = func(write bool, _ mem.Addr) {
		if !write {
			reads++
		}
	}
	c := &collector{}
	// Lines 0x4000 apart map to distinct metadata lines (8 mappings per
	// metadata line); every access is a miss, so each one trains.
	line := func(i int) mem.Addr { return mem.Addr(0x100000 + i*0x4000) }
	for i := 0; i < 2*misbMetaCacheLines; i++ {
		p.OnAccess(access(1, line(i), false), c.issue)
	}
	if n := len(p.metaCache.m); n != misbMetaCacheLines {
		t.Fatalf("metadata cache holds %d lines, want the cap %d", n, misbMetaCacheLines)
	}
	before := reads
	p.OnAccess(access(1, line(0), false), c.issue)
	if reads == before {
		t.Error("touching an evicted metadata line issued no off-chip read")
	}
}

func TestBingoFootprintReplay(t *testing.T) {
	p := NewBingo()
	c := &collector{}
	// Touch a fixed footprint {0,3,5} in region R1 with trigger PC 7 at
	// offset 0, then retire it and trigger the same event in region R1
	// again: the footprint must be prefetched via PC+address.
	base := mem.Addr(0x10000)
	offs := []int{0, 3, 5}
	for _, o := range offs {
		p.OnAccess(access(7, base+mem.Addr(o*mem.LineSize), false), c.issue)
	}
	p.gens.retire(base, p)
	c.lines = nil
	p.OnAccess(access(7, base, false), c.issue)
	if !c.has(base+3*mem.LineSize) || !c.has(base+5*mem.LineSize) {
		t.Errorf("bingo did not replay footprint: %v", c.lines)
	}
	if c.has(base) {
		t.Error("bingo prefetched the trigger line itself")
	}
}

func TestBingoShortEventFallback(t *testing.T) {
	p := NewBingo()
	c := &collector{}
	// Train in region R1, trigger in a different region R2 with the same
	// PC and offset: only the short event (PC+offset) can match.
	r1, r2 := mem.Addr(0x10000), mem.Addr(0x20000)
	for _, o := range []int{1, 4, 6} {
		p.OnAccess(access(9, r1+mem.Addr(o*mem.LineSize), false), c.issue)
	}
	p.gens.retire(r1, p)
	c.lines = nil
	p.OnAccess(access(9, r2+mem.Addr(1*mem.LineSize), false), c.issue)
	if !c.has(r2+4*mem.LineSize) || !c.has(r2+6*mem.LineSize) {
		t.Errorf("bingo PC+offset fallback failed: %v", c.lines)
	}
}

func TestSteMSReplaysRegionOrder(t *testing.T) {
	p := NewSteMS()
	c := &collector{}
	// First pass: regions A, B, C in order, each with a footprint.
	regions := []mem.Addr{0x10000, 0x20000, 0x30000}
	for _, r := range regions {
		for _, o := range []int{0, 2} {
			p.OnAccess(access(5, r+mem.Addr(o*mem.LineSize), false), c.issue)
		}
	}
	for _, r := range regions {
		p.gens.retire(r, p)
	}
	c.lines = nil
	// Second pass trigger on A: B and C footprints should stream in.
	p.OnAccess(access(5, regions[0], false), c.issue)
	if !c.has(regions[1]) || !c.has(regions[1]+2*mem.LineSize) {
		t.Errorf("SteMS did not replay successor region B: %v", c.lines)
	}
	if !c.has(regions[2]) {
		t.Errorf("SteMS did not reach region C: %v", c.lines)
	}
}

func TestDropletStreamsEdgesAndResolvesVertices(t *testing.T) {
	p := NewDroplet()
	edgeBase, edgeEnd := mem.Addr(0x100000), mem.Addr(0x110000)
	p.EdgeRegion = func(l mem.Addr) bool { return l >= edgeBase && l < edgeEnd }
	p.Resolve = func(l mem.Addr) []mem.Addr {
		return []mem.Addr{0x200000 + (l-edgeBase)*2} // deterministic fake
	}
	c := &collector{}
	p.OnAccess(access(3, edgeBase, false), c.issue)
	// Streaming ahead on the edge array:
	if !c.has(edgeBase+mem.LineSize) || !c.has(edgeBase+4*mem.LineSize) {
		t.Errorf("droplet did not stream edges: %v", c.lines)
	}
	// Demand edge line resolved immediately:
	if !c.has(0x200000) {
		t.Errorf("droplet did not resolve demanded edge line: %v", c.lines)
	}
	// A filled edge line is decoded on the next cycle.
	c.lines = nil
	p.OnFill(edgeBase+mem.LineSize, true, 100)
	p.OnCycle(101, c.issue)
	if !c.has(0x200000 + 2*mem.LineSize) {
		t.Errorf("droplet did not resolve filled edge line: %v", c.lines)
	}
	// Decoding the same line twice is suppressed.
	c.lines = nil
	p.OnFill(edgeBase+mem.LineSize, true, 102)
	p.OnCycle(103, c.issue)
	if len(c.lines) != 0 {
		t.Errorf("droplet re-decoded an edge line: %v", c.lines)
	}
}

func TestDropletIgnoresOtherRegions(t *testing.T) {
	p := NewDroplet()
	p.EdgeRegion = func(l mem.Addr) bool { return false }
	p.Resolve = func(l mem.Addr) []mem.Addr { return []mem.Addr{0xdead} }
	c := &collector{}
	p.OnAccess(access(3, 0x5000, false), c.issue)
	p.OnFill(0x5000, true, 1)
	p.OnCycle(2, c.issue)
	if len(c.lines) != 0 {
		t.Errorf("droplet acted outside its regions: %v", c.lines)
	}
}

func TestIMPDetectsIndexStreamThenResolves(t *testing.T) {
	p := NewIMP()
	idxBase, idxEnd := mem.Addr(0x100000), mem.Addr(0x101000)
	p.IndexRegion = func(l mem.Addr) bool { return l >= idxBase && l < idxEnd }
	p.Resolve = func(l mem.Addr) []mem.Addr { return []mem.Addr{0x300000 + (l - idxBase)} }
	c := &collector{}
	for i := 0; i < 5; i++ {
		p.OnAccess(access(8, idxBase+mem.Addr(i*mem.LineSize), false), c.issue)
	}
	if len(c.lines) == 0 {
		t.Fatal("IMP never triggered on a sequential index stream")
	}
	found := false
	for _, l := range c.lines {
		if l >= 0x300000 {
			found = true
		}
	}
	if !found {
		t.Errorf("IMP issued no indirect targets: %v", c.lines)
	}
}

func TestRegionFilterExcludes(t *testing.T) {
	inner := NewNextLine()
	f := &RegionFilter{
		Inner:    inner,
		Excluded: func(l mem.Addr) bool { return l >= 0x1000 && l < 0x2000 },
	}
	c := &collector{}
	f.OnAccess(access(1, 0x1800, false), c.issue) // inside: suppressed
	if len(c.lines) != 0 {
		t.Errorf("filter trained inside excluded range: %v", c.lines)
	}
	f.OnAccess(access(1, 0x3000, false), c.issue) // outside: allowed
	if !c.has(0x3040) {
		t.Errorf("filter blocked legitimate prefetch: %v", c.lines)
	}
	// Issued prefetch landing inside the excluded range is fenced.
	c.lines = nil
	f.OnAccess(access(1, 0xfc0, false), c.issue) // next line would be 0x1000
	if c.has(0x1000) {
		t.Errorf("filter let a prefetch into the excluded range: %v", c.lines)
	}
}

func TestCombineFansOut(t *testing.T) {
	comb := Combine{NewNextLine(), NewNextLine()}
	col := &collector{}
	comb.OnAccess(access(1, 0x1000, false), col.issue)
	if !slices.Equal(col.lines, []mem.Addr{0x1040, 0x1040}) {
		t.Errorf("combine issued %#v, want one next line per member", col.lines)
	}
	if w := comb.Wakeup(5); w != mem.WakeupNever {
		t.Errorf("combine of access-only members wakes at %d", w)
	}
}

// TestWrappersForwardOptionalHooks: Combine and RegionFilter hand fills
// and cycles only to members that implement FillObserver/CycleDriven,
// and the filter still fences what the forwarded hooks issue.
func TestWrappersForwardOptionalHooks(t *testing.T) {
	edgeBase, edgeEnd := mem.Addr(0x100000), mem.Addr(0x110000)
	d := NewDroplet()
	d.EdgeRegion = func(l mem.Addr) bool { return l >= edgeBase && l < edgeEnd }
	d.Resolve = func(mem.Addr) []mem.Addr { return []mem.Addr{0x1800, 0x3000} }
	f := &RegionFilter{Inner: d, Excluded: func(l mem.Addr) bool { return l >= 0x1000 && l < 0x2000 }}
	comb := Combine{NewNextLine(), f}
	col := &collector{}

	comb.OnFill(edgeBase, true, 1)
	if w := comb.Wakeup(1); w != 2 {
		t.Fatalf("buffered fill: combine wakes at %d, want 2", w)
	}
	comb.OnCycle(2, col.issue)
	if !col.has(0x3000) || col.has(0x1800) {
		t.Errorf("forwarded OnCycle issued %v, want 0x3000 and not the fenced 0x1800", col.lines)
	}
	if w := comb.Wakeup(2); w != mem.WakeupNever {
		t.Errorf("drained combine wakes at %d", w)
	}
	// A fill inside the excluded range never reaches the wrapped member.
	col.lines = nil
	f.Excluded = func(mem.Addr) bool { return true }
	comb.OnFill(edgeBase+mem.LineSize, true, 3)
	if w := comb.Wakeup(3); w != mem.WakeupNever {
		t.Errorf("excluded fill reached the droplet (wakeup %d)", w)
	}
}
