package cache

import (
	"fmt"
	"reflect"
	"testing"

	"rnrsim/internal/mem"
)

// recObserver records every lifecycle event as a compact string so
// tests can assert exact event sequences.
type recObserver struct {
	events []string
}

func (o *recObserver) PrefetchIssued(line mem.Addr, cycle uint64, occ int) {
	o.events = append(o.events, fmt.Sprintf("issued:%x:occ=%d", line, occ))
}
func (o *recObserver) PrefetchRedundant(line mem.Addr, cycle uint64) {
	o.events = append(o.events, fmt.Sprintf("redundant:%x", line))
}
func (o *recObserver) PrefetchLateMerge(line mem.Addr, cycle uint64, headStart uint64) {
	o.events = append(o.events, fmt.Sprintf("late:%x:head>0=%v", line, headStart > 0))
}
func (o *recObserver) PrefetchFilled(line mem.Addr, cycle uint64, demanded bool) {
	o.events = append(o.events, fmt.Sprintf("filled:%x:demanded=%v", line, demanded))
}
func (o *recObserver) PrefetchDemandHit(line mem.Addr, cycle uint64) {
	o.events = append(o.events, fmt.Sprintf("hit:%x", line))
}
func (o *recObserver) PrefetchEvictedUnused(line mem.Addr, cycle uint64) {
	o.events = append(o.events, fmt.Sprintf("evicted:%x", line))
}

func newPrefetch(addr mem.Addr) *mem.Request {
	return mem.NewRequest(mem.ReqPrefetch, addr, 0, 0, 0)
}

// TestLifecycleTimelySequence drives prefetch → fill → demand hit and
// checks the observer sees issue, fill and the timely hit in order.
func TestLifecycleTimelySequence(t *testing.T) {
	c := newCache(testConfig(4096, 4))
	m := &fakeMemory{latency: 20}
	c.SetLower(m)
	obs := &recObserver{}
	c.Lifecycle = obs

	if !c.TryPrefetch(newPrefetch(0x1000)) {
		t.Fatal("prefetch rejected")
	}
	run(c, m, func() bool { return c.Stats.PrefetchFills == 1 }, 200)

	var done uint64
	c.TryEnqueue(newLoad(0x1000, 1, &done))
	run(c, m, func() bool { return done != 0 }, 200)

	want := []string{"issued:1000:occ=0", "filled:1000:demanded=false", "hit:1000"}
	if !reflect.DeepEqual(obs.events, want) {
		t.Fatalf("events = %v, want %v", obs.events, want)
	}
}

// TestLifecycleLateSequence lets a demand catch an in-flight prefetch:
// the observer must see the late merge with a positive head start, then
// a demanded fill.
func TestLifecycleLateSequence(t *testing.T) {
	c := newCache(testConfig(4096, 4))
	m := &fakeMemory{latency: 100}
	c.SetLower(m)
	obs := &recObserver{}
	c.Lifecycle = obs

	if !c.TryPrefetch(newPrefetch(0x2000)) {
		t.Fatal("prefetch rejected")
	}
	// Let the prefetch allocate its MSHR, then send the demand.
	run(c, m, func() bool { return len(c.mshrs) == 1 }, 50)
	var done uint64
	c.TryEnqueue(newLoad(0x2000, 1, &done))
	run(c, m, func() bool { return done != 0 }, 400)

	want := []string{"issued:2000:occ=0", "late:2000:head>0=true", "filled:2000:demanded=true"}
	if !reflect.DeepEqual(obs.events, want) {
		t.Fatalf("events = %v, want %v", obs.events, want)
	}
}

// TestLifecycleRedundantPaths covers the three redundant flavours:
// filtered against a resident line, filtered against an in-flight MSHR,
// and a local prefetch merging into a demand miss.
func TestLifecycleRedundantPaths(t *testing.T) {
	c := newCache(testConfig(4096, 4))
	m := &fakeMemory{latency: 60}
	c.SetLower(m)
	obs := &recObserver{}
	c.Lifecycle = obs

	// Make 0x3000 resident via a demand load.
	var done uint64
	c.TryEnqueue(newLoad(0x3000, 1, &done))
	run(c, m, func() bool { return done != 0 }, 200)
	c.TryPrefetch(newPrefetch(0x3000)) // filtered: resident

	// In-flight demand miss, then a prefetch for the same line: the
	// filter drops it against the MSHR.
	var d2 uint64
	c.TryEnqueue(newLoad(0x4000, 1, &d2))
	run(c, m, func() bool { return len(c.mshrs) == 1 }, 300)
	c.TryPrefetch(newPrefetch(0x4000))
	run(c, m, func() bool { return d2 != 0 }, 300)

	want := []string{"redundant:3000", "redundant:4000"}
	if !reflect.DeepEqual(obs.events, want) {
		t.Fatalf("events = %v, want %v", obs.events, want)
	}
}

// TestLifecycleEvictedUnused fills one set beyond capacity with
// prefetches and checks the LRU victim reports evicted-unused.
func TestLifecycleEvictedUnused(t *testing.T) {
	c := newCache(Config{
		Name: "tiny", SizeBytes: 2 * mem.LineSize, Ways: 2, Latency: 1,
		MSHRs: 8, ReadQ: 8, PrefQ: 8, WriteQ: 8, Bandwidth: 2,
	})
	m := &fakeMemory{latency: 5}
	c.SetLower(m)
	obs := &recObserver{}
	c.Lifecycle = obs

	// Three prefetches into a 2-way single-set cache: the third install
	// evicts the LRU prefetched line unused.
	for i, addr := range []mem.Addr{0x1000, 0x2000, 0x3000} {
		if !c.TryPrefetch(newPrefetch(addr)) {
			t.Fatalf("prefetch %d rejected", i)
		}
		run(c, m, func() bool { return c.Stats.PrefetchFills == uint64(i+1) }, 200)
	}
	if c.Stats.PrefetchEvicted != 1 {
		t.Fatalf("PrefetchEvicted = %d, want 1", c.Stats.PrefetchEvicted)
	}
	want := []string{
		"issued:1000:occ=0", "filled:1000:demanded=false",
		"issued:2000:occ=0", "filled:2000:demanded=false",
		"issued:3000:occ=0", "evicted:1000", "filled:3000:demanded=false",
	}
	if !reflect.DeepEqual(obs.events, want) {
		t.Fatalf("events = %v, want %v", obs.events, want)
	}
}

// TestLifecycleInvalidateAllClosesResidents checks a context-switch
// invalidation reports still-unused prefetched lines as evicted (and
// does not fire OnEvict, which would perturb prefetcher state).
func TestLifecycleInvalidateAllClosesResidents(t *testing.T) {
	c := newCache(testConfig(4096, 4))
	m := &fakeMemory{latency: 5}
	c.SetLower(m)
	obs := &recObserver{}
	c.Lifecycle = obs
	onEvicts := 0
	c.OnEvict = func(mem.Addr, bool, uint64) { onEvicts++ }

	c.TryPrefetch(newPrefetch(0x5000))
	run(c, m, func() bool { return c.Stats.PrefetchFills == 1 }, 200)
	// A demanded line must NOT be reported on invalidation.
	var done uint64
	c.TryEnqueue(newLoad(0x6000, 1, &done))
	run(c, m, func() bool { return done != 0 }, 200)

	c.InvalidateAll()
	want := []string{"issued:5000:occ=0", "filled:5000:demanded=false", "evicted:5000"}
	if !reflect.DeepEqual(obs.events, want) {
		t.Fatalf("events = %v, want %v", obs.events, want)
	}
	if onEvicts != 0 {
		t.Fatalf("InvalidateAll fired OnEvict %d times, want 0", onEvicts)
	}
	if c.Lookup(0x5000) || c.Lookup(0x6000) {
		t.Fatal("lines survived InvalidateAll")
	}
}
