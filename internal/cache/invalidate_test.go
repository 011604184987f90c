package cache

import (
	"testing"

	"rnrsim/internal/mem"
)

func invCacheConfig() Config {
	return Config{
		Name: "T", SizeBytes: 1024, Ways: 2, Latency: 1,
		MSHRs: 4, ReadQ: 4, PrefQ: 4, WriteQ: 4, Bandwidth: 2,
	}
}

// fillLine drives one demand load through an unconnected cache (the
// memoryless bottom completes misses immediately) until it is resident.
func fillLine(t *testing.T, c *Cache, line mem.Addr) {
	t.Helper()
	r := mem.NewRequest(mem.ReqLoad, line, 0x40, 0, 0)
	if !c.TryEnqueue(r) {
		t.Fatalf("enqueue of %#x rejected", uint64(line))
	}
	for cyc := uint64(1); cyc < 16 && !c.Lookup(line); cyc++ {
		tick(c, cyc)
	}
	if !c.Lookup(line) {
		t.Fatalf("line %#x never became resident", uint64(line))
	}
}

func TestInvalidateDropsSingleLine(t *testing.T) {
	c := newCache(invCacheConfig())
	a, b := mem.Addr(0x1000), mem.Addr(0x2000)
	fillLine(t, c, a)
	fillLine(t, c, b)
	wake := make([]uint64, 1)
	c.BindWakeFlag(mem.NewWakeFlag(wake, 0))
	if !c.Invalidate(a) {
		t.Fatal("Invalidate of a resident line returned false")
	}
	if c.Lookup(a) {
		t.Fatal("line still resident after Invalidate")
	}
	if !c.Lookup(b) {
		t.Fatal("Invalidate dropped an unrelated line")
	}
	if wake[0] == 0 {
		t.Fatal("Invalidate did not mark the wake flag")
	}
	if c.Invalidate(a) {
		t.Fatal("Invalidate of an absent line returned true")
	}
}

func TestInvalidateClosesUnusedPrefetchLifecycle(t *testing.T) {
	c := newCache(invCacheConfig())
	rec := &countingLifecycle{}
	c.Lifecycle = rec
	line := mem.Addr(0x3000)
	if !c.TryPrefetch(mem.NewRequest(mem.ReqPrefetch, line, 0, 0, 0)) {
		t.Fatal("prefetch rejected")
	}
	for cyc := uint64(1); cyc < 16 && !c.Lookup(line); cyc++ {
		tick(c, cyc)
	}
	evictedBefore := rec.evictedUnused
	c.Invalidate(line)
	if rec.evictedUnused != evictedBefore+1 {
		t.Fatalf("unused-prefetch lifecycle not closed: %d -> %d",
			evictedBefore, rec.evictedUnused)
	}
}

func TestForEachResidentEnumeratesExactly(t *testing.T) {
	c := newCache(invCacheConfig())
	want := map[mem.Addr]bool{0x1000: true, 0x2040: true, 0x3080: true}
	for l := range want {
		fillLine(t, c, l)
	}
	got := map[mem.Addr]bool{}
	c.ForEachResident(func(l mem.Addr) { got[l] = true })
	if len(got) != len(want) {
		t.Fatalf("resident set = %v, want %v", got, want)
	}
	for l := range want {
		if !got[l] {
			t.Fatalf("resident set %v missing %#x", got, uint64(l))
		}
	}
}

// countingLifecycle is a minimal LifecycleObserver for the invalidation
// tests.
type countingLifecycle struct {
	evictedUnused int
}

func (c *countingLifecycle) PrefetchIssued(mem.Addr, uint64, int)       {}
func (c *countingLifecycle) PrefetchRedundant(mem.Addr, uint64)         {}
func (c *countingLifecycle) PrefetchLateMerge(mem.Addr, uint64, uint64) {}
func (c *countingLifecycle) PrefetchFilled(mem.Addr, uint64, bool)      {}
func (c *countingLifecycle) PrefetchDemandHit(mem.Addr, uint64)         {}
func (c *countingLifecycle) PrefetchEvictedUnused(mem.Addr, uint64)     { c.evictedUnused++ }
