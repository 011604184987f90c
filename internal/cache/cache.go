// Package cache implements the set-associative, write-back, write-allocate
// caches of the simulated memory hierarchy (Table II of the paper): private
// L1s and L2s per core and a shared LLC. Caches are ticked once per CPU
// cycle, accept demand, prefetch and writeback traffic through bounded FIFO
// queues (demand has priority over prefetch, as in ChampSim), track misses
// in MSHRs that merge same-line requests, and fill by installing lines and
// cascading completions upward through request callbacks.
package cache

import (
	"fmt"

	"rnrsim/internal/mem"
	"rnrsim/internal/telemetry"
)

// Config describes one cache level.
type Config struct {
	Name      string
	SizeBytes uint64 // total data capacity
	Ways      int    // associativity
	Latency   uint64 // tag+data access latency in cycles
	MSHRs     int    // outstanding misses
	ReadQ     int    // demand input queue capacity
	PrefQ     int    // prefetch input queue capacity
	WriteQ    int    // writeback input queue capacity
	Bandwidth int    // demand lookups per cycle
	// PrefBandwidth is the prefetch-queue port width (lookups per cycle);
	// 0 defaults to Bandwidth. The queues have separate ports, as in
	// ChampSim, so demand traffic shapes prefetch latency, not liveness.
	PrefBandwidth int
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int {
	s := int(c.SizeBytes / mem.LineSize / uint64(c.Ways))
	if s < 1 {
		s = 1
	}
	return s
}

func (c Config) validate() error {
	if c.Ways < 1 || c.SizeBytes < mem.LineSize || c.Latency == 0 ||
		c.MSHRs < 1 || c.ReadQ < 1 || c.WriteQ < 1 || c.Bandwidth < 1 {
		return fmt.Errorf("cache %q: invalid config %+v", c.Name, c)
	}
	if s := c.Sets(); s&(s-1) != 0 {
		return fmt.Errorf("cache %q: %d sets is not a power of two", c.Name, s)
	}
	return nil
}

// AccessInfo is delivered to the OnAccess hook for every lookup the cache
// performs. Prefetchers train on these events; the RnR record engine uses
// Hit/Merged/StructFlag to capture the L2 miss sequence.
type AccessInfo struct {
	Cycle      uint64
	Line       mem.Addr
	PC         uint64
	Core       int
	Type       mem.ReqType
	Hit        bool
	Merged     bool // missed, but merged into an in-flight MSHR
	PrefHit    bool // hit on a still-unused prefetched line
	RegionID   int
	StructFlag bool
}

// Stats aggregates the per-level counters the evaluation needs.
type Stats struct {
	DemandAccesses uint64
	DemandHits     uint64
	DemandMisses   uint64 // true misses (excludes MSHR merges)
	DemandMerges   uint64

	PrefetchIssued    uint64 // prefetch requests accepted into the cache
	PrefetchDropped   uint64 // dropped: queue full / duplicate in flight
	PrefetchFills     uint64 // lines installed by prefetch, unused at fill
	PrefetchFillsDone uint64 // all fills fetched by a prefetch MSHR (incl. demanded late)
	PrefetchUseful    uint64 // prefetched lines referenced by demand before evict
	PrefetchLate      uint64 // demand merged into an in-flight prefetch MSHR
	PrefetchEvicted   uint64 // prefetched lines evicted unreferenced

	Writebacks uint64
	Evictions  uint64

	// MissServiceSum/Cnt measure MSHR allocation-to-fill latency.
	MissServiceSum uint64
	MissServiceCnt uint64
}

// AvgMissService returns the mean MSHR residency in cycles.
func (s Stats) AvgMissService() float64 {
	if s.MissServiceCnt == 0 {
		return 0
	}
	return float64(s.MissServiceSum) / float64(s.MissServiceCnt)
}

type line struct {
	tag        mem.Addr // line-aligned address; valid when != invalidTag
	dirty      bool
	prefetched bool // installed by prefetch and not yet demanded
	lastUse    uint64
}

const invalidTag = ^mem.Addr(0)

type mshr struct {
	allocAt  uint64
	line     mem.Addr
	waiters  []*mem.Request
	prefetch bool // allocated by a prefetch (may be upgraded by a demand)
	demanded bool
	sent     bool // child request handed to the lower level
	child    *mem.Request
	owner    *Cache
	// boundFill caches the fillDone method value: binding a method
	// allocates, so it happens once per mshr object, not once per miss.
	boundFill func(cycle uint64)
	// childReq is the storage child points at: embedding the miss request
	// in the MSHR makes the miss path one arena carve instead of three
	// heap allocations (MSHR, request, fill closure) — the simulator's
	// hottest allocation site.
	childReq mem.Request
}

// fillDone is the child request's completion callback. A method value on
// the arena-carved MSHR replaces the per-miss closure allocation.
func (m *mshr) fillDone(cycle uint64) { m.owner.fill(m, cycle) }

// newMSHR recycles an MSHR from the free list, falling back to chunked
// arena carving. Recycling keeps the waiter slice's backing array and
// the bound fill callback alive across misses, making the steady-state
// miss path allocation-free.
func (c *Cache) newMSHR() *mshr {
	if n := len(c.mshrFree); n > 0 {
		m := c.mshrFree[n-1]
		c.mshrFree = c.mshrFree[:n-1]
		m.waiters = m.waiters[:0]
		m.sent = false
		return m
	}
	if len(c.arena) == 0 {
		c.arena = make([]mshr, 128)
	}
	m := &c.arena[0]
	c.arena = c.arena[1:]
	m.boundFill = m.fillDone
	return m
}

type queued struct {
	req   *mem.Request
	ready uint64 // cycle at which the lookup may proceed (enqueue + latency)
}

// Cache is one level of the hierarchy. Create with New, connect with
// SetLower, drive with TryEnqueue/TryPrefetch and Tick.
type Cache struct {
	cfg     Config
	sets    []line // len = nsets*ways, set-major
	nsets   int
	setMask mem.Addr
	lower   mem.Backend
	clock   uint64
	readQ   reqRing
	prefQ   reqRing
	writeQ  reqRing
	mshrs   []*mshr // active MSHRs; linear scan beats a map at <=128 entries
	// mshrLines[i] == mshrs[i].line, kept in the same swap-delete order:
	// the miss-path lookups scan this contiguous slice instead of
	// dereferencing every active MSHR.
	mshrLines []mem.Addr
	arena     []mshr        // chunk allocator for MSHRs (see newMSHR)
	mshrFree  []*mshr       // retired MSHRs available for reuse
	wbArena   []mem.Request // chunk allocator for eviction writebacks
	unsent    []*mshr       // MSHRs whose child could not be enqueued below yet
	// wakeDirty is set whenever the cache receives external input (an
	// enqueue from above, a fill from below, an invalidation) — anything
	// that can move its Wakeup earlier. The event scheduler owns the flag
	// and clears it when it recomputes the cached wakeup; see
	// BindWakeFlag.
	wakeDirty *bool
	// mshrAllocs counts every MSHR ever allocated; the audit layer checks
	// the conservation law mshrAllocs == MissServiceCnt + len(mshrs)
	// (every miss is either filled or still in flight).
	mshrAllocs uint64
	Stats      Stats
	OnAccess   func(AccessInfo)
	OnFill     func(line mem.Addr, prefetch bool, cycle uint64)
	OnEvict    func(line mem.Addr, wasPrefetchedUnused bool, cycle uint64)
	// Lifecycle, when non-nil, receives per-prefetch lifecycle events
	// (see LifecycleObserver). Purely observational: it must not feed
	// back into cache behaviour, so architectural state is identical
	// with and without it.
	Lifecycle LifecycleObserver
}

// New builds a cache from cfg. It panics on an invalid configuration, which
// is a programming error in the experiment setup, not a runtime condition.
func New(cfg Config) *Cache {
	if cfg.PrefQ < 1 {
		cfg.PrefQ = 1
	}
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	n := cfg.Sets()
	c := &Cache{
		cfg:       cfg,
		sets:      make([]line, n*cfg.Ways),
		nsets:     n,
		setMask:   mem.Addr(n - 1),
		mshrs:     make([]*mshr, 0, cfg.MSHRs),
		mshrLines: make([]mem.Addr, 0, cfg.MSHRs),
		wakeDirty: new(bool),
	}
	for i := range c.sets {
		c.sets[i].tag = invalidTag
	}
	return c
}

// SetLower connects the next level down (another cache or the DRAM
// controller).
func (c *Cache) SetLower(b mem.Backend) { c.lower = b }

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) setIndex(lineAddr mem.Addr) int {
	return int((lineAddr >> mem.LineShift) & c.setMask)
}

func (c *Cache) setSlice(lineAddr mem.Addr) []line {
	i := c.setIndex(lineAddr) * c.cfg.Ways
	return c.sets[i : i+c.cfg.Ways]
}

// Lookup probes the tag array without side effects. Used by tests and by
// prefetch filters that avoid prefetching resident lines.
func (c *Cache) Lookup(lineAddr mem.Addr) bool {
	for i := range c.setSlice(lineAddr) {
		if c.setSlice(lineAddr)[i].tag == lineAddr {
			return true
		}
	}
	return false
}

// InFlight reports whether an MSHR already tracks the line.
func (c *Cache) InFlight(lineAddr mem.Addr) bool {
	ok := c.findMSHR(lineAddr) != nil
	return ok
}

// MSHRFree reports whether a new miss could currently allocate an MSHR.
func (c *Cache) MSHRFree() bool { return len(c.mshrs) < c.cfg.MSHRs }

// findMSHR returns the in-flight MSHR for lineAddr, or nil. MSHR counts
// are small (8-128), so an unordered linear scan is faster than the map
// it replaced on the miss path.
func (c *Cache) findMSHR(lineAddr mem.Addr) *mshr {
	for i, l := range c.mshrLines {
		if l == lineAddr {
			return c.mshrs[i]
		}
	}
	return nil
}

// addMSHR appends m to the active list and its line to the line index.
func (c *Cache) addMSHR(m *mshr) {
	c.mshrs = append(c.mshrs, m)
	c.mshrLines = append(c.mshrLines, m.line)
}

// removeMSHR drops m from the active list (order is not meaningful) by
// swap-delete, mirrored in the line index so the two stay slot for slot.
func (c *Cache) removeMSHR(m *mshr) {
	for i, l := range c.mshrLines {
		if l == m.line && c.mshrs[i] == m {
			last := len(c.mshrs) - 1
			c.mshrs[i] = c.mshrs[last]
			c.mshrs[last] = nil
			c.mshrs = c.mshrs[:last]
			c.mshrLines[i] = c.mshrLines[last]
			c.mshrLines = c.mshrLines[:last]
			return
		}
	}
}

// TryEnqueue accepts a demand or writeback request into the cache's input
// queues. It implements mem.Backend so caches stack naturally. Prefetches
// arriving from above are routed into the prefetch queue.
func (c *Cache) TryEnqueue(r *mem.Request) bool {
	switch r.Type {
	case mem.ReqWriteback:
		if c.writeQ.len() >= c.cfg.WriteQ {
			return false
		}
		c.writeQ.pushBack(queued{r, c.clock + c.cfg.Latency})
		*c.wakeDirty = true
	case mem.ReqPrefetch:
		return c.TryPrefetch(r)
	default:
		if c.readQ.len() >= c.cfg.ReadQ {
			return false
		}
		c.readQ.pushBack(queued{r, c.clock + c.cfg.Latency})
		*c.wakeDirty = true
	}
	return true
}

// TryPrefetch accepts a prefetch request. Locally-generated prefetches
// (no completion callback) that target a resident line or an in-flight
// miss are dropped (filtered). Prefetch *children* arriving from the
// level above carry a Done callback and must always flow through the
// lookup path so their originating MSHR gets its fill.
func (c *Cache) TryPrefetch(r *mem.Request) bool {
	if r.Done == nil && (c.Lookup(r.Line) || c.InFlight(r.Line)) {
		c.Stats.PrefetchDropped++
		if c.Lifecycle != nil {
			c.Lifecycle.PrefetchRedundant(r.Line, c.clock)
		}
		return true // filtered, but accepted from the issuer's perspective
	}
	if c.prefQ.len() >= c.cfg.PrefQ {
		c.Stats.PrefetchDropped++
		return false
	}
	c.prefQ.pushBack(queued{r, c.clock + c.cfg.Latency})
	*c.wakeDirty = true
	c.Stats.PrefetchIssued++
	return true
}

// CanAcceptDemand implements mem.DemandCapacity: whether a demand
// TryEnqueue would currently be admitted to the read queue.
func (c *Cache) CanAcceptDemand() bool { return c.readQ.len() < c.cfg.ReadQ }

// Wakeup reports the earliest future cycle at which Tick could change
// state, or mem.WakeupNever when the cache is quiescent (possibly with
// MSHRs outstanding — fills are completion callbacks, not tick work).
// Each input queue is FIFO, so its head gates the whole queue. A head
// that is ready but structurally blocked is frozen, not busy: a demand
// head that would miss with every MSHR busy is retried by Tick each
// cycle, but the retry is a provable no-op (stats cancel out, only the
// head's requeue stamp churns — and that reconverges at the next real
// tick), and the prefetch loop breaks before touching its queue when
// MSHRs are below the demand reservation. Both unblock only via a fill,
// which is a completion callback after which wakeups are recomputed.
func (c *Cache) Wakeup(now uint64) uint64 {
	if len(c.unsent) > 0 {
		return now + 1 // blocked miss traffic is retried every cycle
	}
	w := mem.WakeupNever
	if c.readQ.n > 0 {
		if f := c.readQ.front(); f.ready > now {
			w = f.ready
		} else if len(c.mshrs) < c.cfg.MSHRs || c.Lookup(f.req.Line) ||
			c.InFlight(f.req.Line) {
			return now + 1 // hit, merge or MSHR allocation: real work next cycle
		}
		// else: fresh miss with MSHRs exhausted — frozen until a fill.
	}
	if c.prefQ.n > 0 {
		if f := c.prefQ.front(); f.ready > now {
			if f.ready < w {
				w = f.ready
			}
		} else {
			reserved := 4
			if reserved > c.cfg.MSHRs/2 {
				reserved = c.cfg.MSHRs / 2
			}
			if len(c.mshrs) < c.cfg.MSHRs-reserved {
				return now + 1
			}
			// else: Tick's prefetch loop breaks untouched — frozen.
		}
	}
	if c.writeQ.n > 0 {
		if f := c.writeQ.front(); f.ready > now {
			if f.ready < w {
				w = f.ready
			}
		} else {
			// A ready writeback may still be blocked below; the failed
			// apply is pure but cheap certainty isn't — simulate it.
			return now + 1
		}
	}
	return w
}

// AdvanceClock fast-forwards the internal clock over skipped idle
// cycles. The clock timestamps enqueues (ready = clock + latency) and
// posted completions, so before simulating cycle X after a jump it must
// read X-1 — exactly what a cycle-stepped Tick at X-1 would have left
// behind (Tick sets the clock before its idle early-exit, so this is
// the only effect the skipped ticks had).
func (c *Cache) AdvanceClock(now uint64) { c.clock = now }

// BindWakeFlag points the cache's external-input flag at *p. Everything
// that can move the wakeup earlier (TryEnqueue, TryPrefetch, fill,
// Invalidate, InvalidateAll) sets *p; the event scheduler owns the flag
// (a slot of its wake table) and clears it when it recomputes the cached
// wakeup.
func (c *Cache) BindWakeFlag(p *bool) { c.wakeDirty = p }

// Tick advances the cache by one cycle: it retries blocked miss traffic,
// performs up to Bandwidth lookups (demand before prefetch) and forwards
// writebacks.
func (c *Cache) Tick(now uint64) {
	c.clock = now
	// Idle early-exit: with every input queue empty and no blocked miss
	// traffic there is no per-cycle work — outstanding MSHR fills are
	// driven by the lower level's completion callbacks, not by ticking.
	// Most cache-cycles are idle (the LLC in particular), so this check
	// dominates the per-tick cost of the whole hierarchy.
	if c.readQ.n == 0 && c.prefQ.n == 0 && c.writeQ.n == 0 && len(c.unsent) == 0 {
		return
	}
	c.retryUnsent()

	budget := c.cfg.Bandwidth
	for budget > 0 && c.readQ.n > 0 && c.readQ.front().ready <= now {
		q := c.readQ.popFront()
		c.access(q.req, now)
		budget--
	}
	// The prefetch queue has its own port (as in ChampSim, where RQ and
	// PQ are processed every cycle); otherwise steady demand traffic
	// starves prefetching forever. Prefetches keep a few MSHRs reserved
	// for demands.
	prefBudget := c.cfg.PrefBandwidth
	if prefBudget == 0 {
		prefBudget = c.cfg.Bandwidth
	}
	for prefBudget > 0 && c.prefQ.n > 0 && c.prefQ.front().ready <= now {
		reserved := 4
		if reserved > c.cfg.MSHRs/2 {
			reserved = c.cfg.MSHRs / 2
		}
		if len(c.mshrs) >= c.cfg.MSHRs-reserved {
			break
		}
		q := c.prefQ.popFront()
		c.access(q.req, now)
		prefBudget--
	}
	// Writebacks are off the critical path but must keep pace with the
	// eviction rate or they clog the hierarchy.
	wbBudget := c.cfg.Bandwidth
	for wbBudget > 0 && c.writeQ.n > 0 && c.writeQ.front().ready <= now {
		if !c.applyWriteback(c.writeQ.front().req, now) {
			break
		}
		c.writeQ.popFront()
		wbBudget--
	}
}

// access performs one tag lookup and either completes a hit or allocates /
// merges an MSHR for a miss.
func (c *Cache) access(r *mem.Request, now uint64) {
	set := c.setSlice(r.Line)
	demand := r.Type.IsDemand()
	if demand {
		c.Stats.DemandAccesses++
	}

	for i := range set {
		if set[i].tag == r.Line {
			prefHit := set[i].prefetched
			set[i].lastUse = now
			if demand {
				c.Stats.DemandHits++
				if prefHit {
					c.Stats.PrefetchUseful++
					set[i].prefetched = false
					if c.Lifecycle != nil {
						c.Lifecycle.PrefetchDemandHit(r.Line, now)
					}
				}
				if r.Type == mem.ReqStore {
					set[i].dirty = true
				}
			} else if r.Type == mem.ReqPrefetch && r.Done == nil {
				// Residence check raced with install; nothing to do.
				c.Stats.PrefetchDropped++
				if c.Lifecycle != nil {
					c.Lifecycle.PrefetchRedundant(r.Line, now)
				}
			}
			c.notifyAccess(r, now, true, false, prefHit)
			r.Complete(now)
			return
		}
	}

	// Miss. Merge into an existing MSHR when possible.
	if m := c.findMSHR(r.Line); m != nil {
		if demand {
			c.Stats.DemandMerges++
			if m.prefetch && !m.demanded {
				// A demand caught up with an in-flight prefetch: the
				// prefetch was issued, just late.
				c.Stats.PrefetchLate++
				if c.Lifecycle != nil {
					c.Lifecycle.PrefetchLateMerge(r.Line, now, now-m.allocAt)
				}
			}
			m.demanded = true
			m.waiters = append(m.waiters, r)
		} else if r.Done != nil {
			// A prefetch child from above: it needs the data, so wait
			// for the in-flight fill like any other waiter.
			m.waiters = append(m.waiters, r)
		} else {
			// A local prefetch merging into an in-flight miss is a no-op.
			c.Stats.PrefetchDropped++
			if c.Lifecycle != nil {
				c.Lifecycle.PrefetchRedundant(r.Line, now)
			}
			r.Complete(now)
		}
		c.notifyAccess(r, now, false, true, false)
		return
	}

	if !c.MSHRFree() {
		// Structural stall: requeue at the head so ordering is preserved.
		if demand {
			c.Stats.DemandAccesses--
		}
		c.readdHead(r, now)
		return
	}

	if demand {
		c.Stats.DemandMisses++
	}
	c.notifyAccess(r, now, false, false, false)
	if c.Lifecycle != nil && r.Type == mem.ReqPrefetch && r.Done == nil {
		c.Lifecycle.PrefetchIssued(r.Line, now, len(c.mshrs))
	}

	m := c.newMSHR()
	m.line = r.Line
	m.prefetch = r.Type == mem.ReqPrefetch
	m.demanded = demand
	m.allocAt = now
	m.owner = c
	if r.Done != nil {
		m.waiters = append(m.waiters, r)
	} else if r.Type == mem.ReqPrefetch {
		// keep nothing; fill path uses the MSHR itself
	}
	m.childReq = mem.Request{
		Type:       childType(r.Type),
		Addr:       r.Line,
		Line:       r.Line,
		PC:         r.PC,
		Core:       r.Core,
		RegionID:   r.RegionID,
		StructFlag: r.StructFlag,
		Issue:      now,
	}
	child := &m.childReq
	child.Done = m.boundFill
	m.child = child
	c.addMSHR(m)
	c.mshrAllocs++
	if c.lower == nil || c.lower.TryEnqueue(child) {
		m.sent = c.lower != nil
		if c.lower == nil {
			// Memoryless bottom (tests only): complete immediately.
			c.fill(m, now+1)
		}
	} else {
		c.unsent = append(c.unsent, m)
	}
}

// childType maps an access type to the request type sent down on a miss.
// Stores become reads-for-ownership; everything else is preserved.
func childType(t mem.ReqType) mem.ReqType {
	if t == mem.ReqStore {
		return mem.ReqLoad
	}
	return t
}

// readdHead pushes a request back to the front of its queue after a
// structural stall.
func (c *Cache) readdHead(r *mem.Request, now uint64) {
	q := queued{r, now + 1}
	if r.Type == mem.ReqPrefetch {
		c.prefQ.pushFront(q)
	} else {
		c.readQ.pushFront(q)
	}
}

func (c *Cache) retryUnsent() {
	if len(c.unsent) == 0 || c.lower == nil {
		return
	}
	kept := c.unsent[:0]
	for _, m := range c.unsent {
		if !m.sent && c.lower.TryEnqueue(m.child) {
			m.sent = true
			continue
		}
		if !m.sent {
			kept = append(kept, m)
		}
	}
	c.unsent = kept
}

// fill installs the line delivered by the lower level and wakes waiters.
func (c *Cache) fill(m *mshr, now uint64) {
	*c.wakeDirty = true
	c.removeMSHR(m)
	c.Stats.MissServiceSum += now - m.allocAt
	c.Stats.MissServiceCnt++
	c.install(m.line, m.prefetch && !m.demanded, now)
	if m.prefetch {
		c.Stats.PrefetchFillsDone++
		if !m.demanded {
			c.Stats.PrefetchFills++
		}
		if c.Lifecycle != nil {
			c.Lifecycle.PrefetchFilled(m.line, now, m.demanded)
		}
	}
	if c.OnFill != nil {
		c.OnFill(m.line, m.prefetch, now)
	}
	for _, w := range m.waiters {
		if w.Type == mem.ReqStore {
			c.markDirty(m.line)
		}
		w.Complete(now)
	}
	// The child request completed and every waiter was handed back, so
	// nothing below or above still points at this MSHR: recycle it.
	c.mshrFree = append(c.mshrFree, m)
}

// install places lineAddr into its set, evicting the LRU way.
func (c *Cache) install(lineAddr mem.Addr, prefetched bool, now uint64) {
	set := c.setSlice(lineAddr)
	victim := 0
	for i := range set {
		if set[i].tag == lineAddr {
			// Already present (e.g. a racing writeback installed it).
			set[i].lastUse = now
			return
		}
		if set[i].tag == invalidTag {
			victim = i
			break
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	v := &set[victim]
	if v.tag != invalidTag {
		c.evict(v, now)
	}
	*v = line{tag: lineAddr, prefetched: prefetched, lastUse: now}
}

func (c *Cache) evict(v *line, now uint64) {
	c.Stats.Evictions++
	unused := v.prefetched
	if unused {
		c.Stats.PrefetchEvicted++
		if c.Lifecycle != nil {
			c.Lifecycle.PrefetchEvictedUnused(v.tag, now)
		}
	}
	if c.OnEvict != nil {
		c.OnEvict(v.tag, unused, now)
	}
	if v.dirty && c.lower != nil {
		if len(c.wbArena) == 0 {
			c.wbArena = make([]mem.Request, 128)
		}
		wb := &c.wbArena[0]
		c.wbArena = c.wbArena[1:]
		*wb = mem.Request{Type: mem.ReqWriteback, Addr: v.tag, Line: v.tag, Core: -1, Issue: now}
		if !c.lower.TryEnqueue(wb) {
			// Model a bounded retry by dropping into our own write queue.
			c.writeQ.pushBack(queued{wb, now + 1})
		}
		c.Stats.Writebacks++
	}
}

// applyWriteback lands a writeback from the level above: update in place if
// resident, otherwise pass it down (non-inclusive hierarchy). Returns false
// if it must be retried because the lower level is full.
func (c *Cache) applyWriteback(r *mem.Request, now uint64) bool {
	set := c.setSlice(r.Line)
	for i := range set {
		if set[i].tag == r.Line {
			set[i].dirty = true
			set[i].lastUse = now
			return true
		}
	}
	if c.lower == nil {
		return true
	}
	return c.lower.TryEnqueue(r)
}

func (c *Cache) markDirty(lineAddr mem.Addr) {
	set := c.setSlice(lineAddr)
	for i := range set {
		if set[i].tag == lineAddr {
			set[i].dirty = true
			return
		}
	}
}

func (c *Cache) notifyAccess(r *mem.Request, now uint64, hit, merged, prefHit bool) {
	if c.OnAccess == nil || r.Type == mem.ReqWriteback {
		return
	}
	if r.Type == mem.ReqPrefetch {
		return // prefetchers do not train on their own traffic
	}
	c.OnAccess(AccessInfo{
		Cycle:      now,
		Line:       r.Line,
		PC:         r.PC,
		Core:       r.Core,
		Type:       r.Type,
		Hit:        hit,
		Merged:     merged,
		PrefHit:    prefHit,
		RegionID:   r.RegionID,
		StructFlag: r.StructFlag,
	})
}

// Pending returns the number of requests waiting in the input queues,
// useful for drain loops in tests and at end of simulation.
func (c *Cache) Pending() int {
	return c.readQ.len() + c.prefQ.len() + c.writeQ.len() + len(c.mshrs)
}

// Add accumulates other into s (used to aggregate private caches).
func (s *Stats) Add(other Stats) {
	s.DemandAccesses += other.DemandAccesses
	s.DemandHits += other.DemandHits
	s.DemandMisses += other.DemandMisses
	s.DemandMerges += other.DemandMerges
	s.PrefetchIssued += other.PrefetchIssued
	s.PrefetchDropped += other.PrefetchDropped
	s.PrefetchFills += other.PrefetchFills
	s.PrefetchFillsDone += other.PrefetchFillsDone
	s.PrefetchUseful += other.PrefetchUseful
	s.PrefetchLate += other.PrefetchLate
	s.PrefetchEvicted += other.PrefetchEvicted
	s.Writebacks += other.Writebacks
	s.Evictions += other.Evictions
	s.MissServiceSum += other.MissServiceSum
	s.MissServiceCnt += other.MissServiceCnt
}

// MPKI returns demand misses per thousand of the given instruction count.
func (s Stats) MPKI(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(s.DemandMisses) / float64(instructions) * 1000
}

// Accuracy returns the fraction of issued prefetch fills that were useful.
func (s Stats) Accuracy() float64 {
	total := s.PrefetchUseful + s.PrefetchEvicted
	if total == 0 {
		return 0
	}
	return float64(s.PrefetchUseful) / float64(total)
}

// Occupancy reports queue and MSHR occupancy for diagnostics.
func (c *Cache) Occupancy() (readQ, prefQ, writeQ, mshrs int) {
	return c.readQ.len(), c.prefQ.len(), c.writeQ.len(), len(c.mshrs)
}

// RegisterProbes registers this cache level's sampled series under
// prefix (e.g. "l2.0."): instantaneous MSHR and input-queue occupancy
// plus the demand miss rate over the previous sample interval. Pull-style
// probes leave the lookup path untouched; a nil recorder is a no-op.
func (c *Cache) RegisterProbes(tel *telemetry.Recorder, prefix string) {
	if tel == nil {
		return
	}
	tel.Probe(prefix+"mshr", func(uint64) float64 { return float64(len(c.mshrs)) })
	tel.Probe(prefix+"readq", func(uint64) float64 { return float64(c.readQ.len()) })
	tel.Probe(prefix+"prefq", func(uint64) float64 { return float64(c.prefQ.len()) })
	tel.Probe(prefix+"writeq", func(uint64) float64 { return float64(c.writeQ.len()) })
	var lastAcc, lastMiss uint64
	tel.Probe(prefix+"miss_rate", func(uint64) float64 {
		da := c.Stats.DemandAccesses - lastAcc
		dm := c.Stats.DemandMisses - lastMiss
		lastAcc, lastMiss = c.Stats.DemandAccesses, c.Stats.DemandMisses
		if da == 0 {
			return 0
		}
		return float64(dm) / float64(da)
	})
}

// Invalidate drops the single resident line lineAddr, returning whether
// it was present. This is the coherence invalidation path: a remote
// store hit a line this cache shares, so the copy dies. Like
// InvalidateAll, dirty data is dropped without writeback traffic (the
// trace simulator carries no data; the modelled cost is the refetch)
// and the drop is deliberately NOT routed through OnEvict — OnEvict
// feeds the RnR engine's eviction bookkeeping, which must see only
// capacity evictions, not remote stores. Still-unused prefetched lines
// close their lifecycle records exactly as InvalidateAll closes them.
func (c *Cache) Invalidate(lineAddr mem.Addr) bool {
	set := c.setSlice(lineAddr)
	for i := range set {
		if set[i].tag == lineAddr {
			*c.wakeDirty = true
			if c.Lifecycle != nil && set[i].prefetched {
				c.Lifecycle.PrefetchEvictedUnused(lineAddr, c.clock)
			}
			set[i] = line{tag: invalidTag}
			return true
		}
	}
	return false
}

// ForEachResident calls fn for every resident line. Audit sweeps use it
// to compare a cache's actual contents against the coherence
// directory's sharer masks; it is never on the tick path.
func (c *Cache) ForEachResident(fn func(line mem.Addr)) {
	for i := range c.sets {
		if c.sets[i].tag != invalidTag {
			fn(c.sets[i].tag)
		}
	}
}

// InvalidateAll drops every resident line, modelling the cache pollution
// of a context switch (another process evicted everything while this one
// was descheduled). The trace simulator carries no data, so dirty lines
// are dropped without writeback traffic; the cost modelled is the warm-up
// misses afterwards, which §IV-C identifies as the dominant penalty.
func (c *Cache) InvalidateAll() {
	*c.wakeDirty = true
	for i := range c.sets {
		// Invalidation ends the lifecycle of still-unused prefetched
		// lines exactly like an eviction would; without this the flight
		// recorder would leak open records across context-switch
		// generations. Deliberately NOT routed through OnEvict — the
		// prefetcher reset is handled by the switch path itself, and
		// firing OnEvict here would perturb recorded RnR state.
		if c.Lifecycle != nil && c.sets[i].tag != invalidTag && c.sets[i].prefetched {
			c.Lifecycle.PrefetchEvictedUnused(c.sets[i].tag, c.clock)
		}
		c.sets[i] = line{tag: invalidTag}
	}
}
