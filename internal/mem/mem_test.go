package mem

import (
	"testing"
	"testing/quick"
)

func TestLineMath(t *testing.T) {
	cases := []struct {
		addr, line, huge Addr
	}{
		{0, 0, 0},
		{1, 0, 0},
		{63, 0, 0},
		{64, 64, 0},
		{4095, 4032, 0},
		{4096, 4096, 0},
		{0x400000, 0x400000, 0x400000},
		{0x400001, 0x400000, 0x400000},
	}
	for _, c := range cases {
		if got := LineAddr(c.addr); got != c.line {
			t.Errorf("LineAddr(%#x) = %#x, want %#x", c.addr, got, c.line)
		}
		if got := HugeAddr(c.addr); got != c.huge {
			t.Errorf("HugeAddr(%#x) = %#x, want %#x", c.addr, got, c.huge)
		}
	}
}

func TestLineMathProperties(t *testing.T) {
	// LineAddr is idempotent, aligned, and never past the input.
	prop := func(a uint64) bool {
		la := LineAddr(Addr(a))
		return la <= Addr(a) &&
			uint64(la)%LineSize == 0 &&
			LineAddr(la) == la &&
			Addr(a)-la < LineSize
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestAlignUp(t *testing.T) {
	if got := AlignUp(0, 64); got != 0 {
		t.Errorf("AlignUp(0,64) = %d", got)
	}
	if got := AlignUp(1, 64); got != 64 {
		t.Errorf("AlignUp(1,64) = %d", got)
	}
	if got := AlignUp(64, 64); got != 64 {
		t.Errorf("AlignUp(64,64) = %d", got)
	}
	prop := func(a uint32) bool {
		up := AlignUp(Addr(a), PageSize)
		return up >= Addr(a) && uint64(up)%PageSize == 0 && up-Addr(a) < PageSize
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestAllocatorLayout(t *testing.T) {
	al := NewAllocator(0x1000)
	a := al.AllocPage("a", 100)
	b := al.AllocPage("b", 4096)
	c := al.Alloc("c", 10, 64)

	if a.Base != 0x1000 {
		t.Errorf("first region base = %#x, want 0x1000", uint64(a.Base))
	}
	if uint64(b.Base)%PageSize != 0 {
		t.Errorf("page alloc not page aligned: %#x", uint64(b.Base))
	}
	if b.Base < a.End() {
		t.Errorf("regions overlap: %v then %v", a, b)
	}
	if c.Base < b.End() || uint64(c.Base)%64 != 0 {
		t.Errorf("third region misplaced: %v after %v", c, b)
	}
	if got := len(al.regions); got != 3 {
		t.Fatalf("allocator holds %d regions, want 3", got)
	}
	for i, r := range al.regions {
		if r.ID != i {
			t.Errorf("region %d has ID %d", i, r.ID)
		}
	}
}

func TestAllocatorNoOverlap(t *testing.T) {
	al := NewAllocator(0)
	sizes := []uint64{1, 63, 64, 65, 4095, 4096, 4097, 1 << 20}
	for i, sz := range sizes {
		al.Alloc("r", sz, 64)
		_ = i
	}
	rs := al.regions
	for i := 1; i < len(rs); i++ {
		if rs[i].Base < rs[i-1].End() {
			t.Errorf("region %d (%v) overlaps previous (%v)", i, rs[i], rs[i-1])
		}
	}
}

// findRegion returns the region of al containing a, if any.
func findRegion(al *Allocator, a Addr) (Region, bool) {
	for _, r := range al.regions {
		if r.Contains(a) {
			return r, true
		}
	}
	return Region{}, false
}

func TestRegionContainsAndFind(t *testing.T) {
	al := NewAllocator(0x10000)
	r := al.Alloc("x", 256, 64)
	if !r.Contains(r.Base) || !r.Contains(r.End()-1) {
		t.Error("region does not contain its own bounds")
	}
	if r.Contains(r.End()) || r.Contains(r.Base-1) {
		t.Error("region contains addresses outside itself")
	}
	if got, ok := findRegion(al, r.Base+5); !ok || got.ID != r.ID {
		t.Errorf("findRegion inside = %v,%v", got, ok)
	}
	if _, ok := findRegion(al, 0); ok {
		t.Error("findRegion found a region at unallocated address 0")
	}
}

func TestRequestCompleteOnce(t *testing.T) {
	n := 0
	r := NewRequest(ReqLoad, 0x1234, 7, 0, 100)
	r.Done = func(cycle uint64) {
		n++
		if cycle != 150 {
			t.Errorf("completion cycle = %d, want 150", cycle)
		}
	}
	if r.Line != 0x1200 {
		t.Errorf("derived line = %#x, want 0x1200", uint64(r.Line))
	}
	r.Complete(150)
	r.Complete(160) // must be a no-op
	if n != 1 {
		t.Errorf("Done ran %d times, want 1", n)
	}
}

func TestReqTypeClassifiers(t *testing.T) {
	if !ReqLoad.IsDemand() || !ReqStore.IsDemand() {
		t.Error("load/store must be demand")
	}
	if ReqPrefetch.IsDemand() || ReqMetaRead.IsDemand() {
		t.Error("prefetch/meta must not be demand")
	}
	if ReqLoad.String() != "load" || ReqWriteback.String() != "writeback" {
		t.Errorf("String() = %q/%q", ReqLoad, ReqWriteback)
	}
}
