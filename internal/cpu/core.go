// Package cpu provides the trace-driven out-of-order core model that drives
// the memory hierarchy. It is deliberately simple — a ROB, an LSQ and
// fetch/retire widths — but captures the two behaviours the evaluation
// depends on: memory-level parallelism (many loads outstanding at once, up
// to the ROB/LSQ limits) and head-of-ROB stalls on long-latency misses,
// which is where prefetching earns its speedup.
package cpu

import (
	"fmt"

	"rnrsim/internal/mem"
	"rnrsim/internal/telemetry"
	"rnrsim/internal/trace"
)

// Config sizes the core. Default matches the paper's Table II.
type Config struct {
	ROB         int    // reorder-buffer entries
	LSQ         int    // load/store-queue entries (outstanding memory ops)
	FetchWidth  int    // instructions dispatched per cycle
	RetireWidth int    // instructions retired per cycle
	ExecLatency uint64 // completion latency of non-memory instructions
}

// Default returns the 4-wide OoO core of Table II: 256-entry ROB, 64-entry
// LSQ, 16-entry issue queue folded into the fetch width.
func Default() Config {
	return Config{ROB: 256, LSQ: 64, FetchWidth: 4, RetireWidth: 4, ExecLatency: 1}
}

func (c Config) validate() error {
	if c.ROB < 1 || c.LSQ < 1 || c.FetchWidth < 1 || c.RetireWidth < 1 {
		return fmt.Errorf("cpu: invalid config %+v", c)
	}
	return nil
}

// Stats counts core activity.
type Stats struct {
	Cycles       uint64
	Instructions uint64
	Loads        uint64
	Stores       uint64
	Markers      uint64
	FetchStalls  uint64 // cycles fetch was blocked (ROB/LSQ/L1 full)
	ROBStallCyc  uint64 // cycles retire made no progress with a full ROB

	// LoadLatencySum accumulates per-load completion latency (dispatch to
	// data), for average-latency diagnostics.
	LoadLatencySum uint64
}

// AvgLoadLatency returns the mean load-to-use latency in cycles.
func (s Stats) AvgLoadLatency() float64 {
	if s.Loads == 0 {
		return 0
	}
	return float64(s.LoadLatencySum) / float64(s.Loads)
}

type robEntry struct {
	mem     bool
	done    bool
	doneAt  uint64
	usesLSQ bool
	marker  bool
}

// Core executes one hardware thread's trace against an L1 data cache.
type Core struct {
	ID  int
	cfg Config

	l1    mem.Backend
	l1Cap mem.DemandCapacity // optional capacity probe on l1, for Wakeup
	src   trace.Source

	rob   []robEntry // ring buffer
	head  int
	tail  int
	count int

	lsqUsed int

	pendingExec  uint64 // instructions left in the current Exec bundle
	pendingRec   trace.Record
	pendingValid bool
	pendingReq   *mem.Request // built (and PreAccess-ed) but not yet accepted by the L1
	pendingOp    *memOp       // the memOp wrapping pendingReq
	opArena      []memOp      // chunk allocator for memOps
	opFree       []*memOp     // completed memOps available for reuse
	drained      bool
	wake         mem.WakeFlag // marked by completions that can move Wakeup; see BindWakeFlag
	clk          *mem.Clock   // the machine's clock, read from slot (see BindClock)
	slot         int
	charged      uint64 // last cycle charged to Stats; see Settle

	Stats Stats

	// OnMarker is invoked at dispatch of each marker record (the paper's
	// software-interface register writes). The RnR engine hooks it.
	OnMarker func(rec trace.Record, cycle uint64)

	// PreAccess, if set, is invoked for every demand request before it is
	// sent to the L1. The RnR engine uses it to perform the boundary-table
	// check, set the request's StructFlag and advance Cur Struct Read.
	PreAccess func(r *mem.Request)

	// Gate, if set, pauses instruction fetch while it returns false.
	// The simulator uses it to implement the SPMD iteration barrier
	// (workers wait for the master at iteration ends, §VI). Retirement
	// continues so in-flight work drains while gated.
	Gate func() bool
}

// New builds a core over the given trace and L1 backend.
func New(id int, cfg Config, src trace.Source, l1 mem.Backend) *Core {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	c := &Core{ID: id, cfg: cfg, l1: l1, src: src, rob: make([]robEntry, cfg.ROB),
		wake: mem.NewWakeFlag(make([]uint64, 1), 0)}
	c.l1Cap, _ = l1.(mem.DemandCapacity)
	return c
}

// Done reports whether the core has drained its trace and retired
// everything.
func (c *Core) Done() bool {
	return c.drained && c.count == 0 && c.pendingExec == 0 && !c.pendingValid
}

// Tick advances the core one cycle: retire, then fetch/dispatch.
func (c *Core) Tick(now uint64) {
	c.settleTo(now - 1) // the cycles since the last charge were idle
	c.charged = now     // this one the tick itself counts
	if c.Done() {
		return
	}
	c.Stats.Cycles++
	c.retire(now)
	c.fetch(now)
}

// Wakeup reports the earliest future cycle at which Tick could change
// architectural state, or mem.WakeupNever when the core can only be
// woken by an external completion (a memory fill marking the ROB head
// done or freeing an LSQ slot). See mem.WakeupNever for the contract.
//
// Per-cycle stall counters (Cycles, FetchStalls, ROBStallCyc) are NOT
// wakeup conditions: they advance deterministically over a frozen span
// and Settle charges them in one batch.
func (c *Core) Wakeup(now uint64) uint64 {
	if c.Done() {
		return mem.WakeupNever
	}
	w := mem.WakeupNever
	if c.count > 0 {
		if e := &c.rob[c.head]; e.done {
			if e.doneAt <= now+1 {
				return now + 1 // retirement due now
			}
			w = e.doneAt // retirement timer (exec latency)
		}
		// Head not done: a load waiting on memory. Its completion is a
		// callback during some other component's tick; wakeups are
		// recomputed after every tick, so nothing to schedule here.
	}
	if c.Gate != nil && !c.Gate() {
		return w // fetch gated at the barrier: only retirement progresses
	}
	if c.count == c.cfg.ROB {
		return w // fetch blocked until retirement frees a slot
	}
	switch {
	case c.pendingExec > 0:
		return now + 1 // exec bundle keeps dispatching
	case c.pendingReq != nil:
		// L1 backpressure. The dispatch retry runs every cycle, but a
		// retry against a still-full read queue provably fails without
		// side effects beyond the per-cycle FetchStalls count (charged by
		// Settle): the rejection is pure, the tail-slot rewrite is
		// outside the architectural window, and the retry closure is
		// rebuilt from scratch on the attempt that finally lands. So only
		// wake when the L1 could admit the request; the queue frees a
		// slot during an L1 tick, after which wakeups are recomputed.
		if c.l1Cap == nil || c.l1Cap.CanAcceptDemand() {
			return now + 1
		}
		return w
	case c.pendingValid:
		if k := c.pendingRec.Kind; k != trace.KindLoad && k != trace.KindStore {
			return now + 1 // non-memory record dispatches next cycle
		}
		if c.lsqUsed < c.cfg.LSQ {
			return now + 1 // request build + dispatch next cycle
		}
		// LSQ full: frozen until a completion frees a slot (external).
	case !c.drained:
		return now + 1 // fetch pulls the next trace record
	}
	return w
}

// BlockedOnL1 reports whether dispatch is stalled on a request the L1
// rejected. Only then does Wakeup consult the L1's demand capacity, so
// only then can an L1 tick that frees demand capacity move the core's
// wakeup without any completion reaching the core.
func (c *Core) BlockedOnL1() bool { return c.pendingReq != nil }

// BindWakeFlag binds the core's external-input flag: a memory
// completion callback that can move Wakeup earlier (the ROB head done,
// a slot of a full LSQ freed) marks it. The event scheduler owns the
// flag (a bit of its wake table's stale set) and clears it when it
// recomputes the cached wakeup.
func (c *Core) BindWakeFlag(f mem.WakeFlag) { c.wake = f }

// BindClock binds the core to the machine's clock at its slot in the
// tick order. The cycle read there is the core's position: every cycle
// up to it that the core did not tick is an idle cycle, charged by
// Settle.
func (c *Core) BindClock(clk *mem.Clock, slot int) { c.clk, c.slot = clk, slot }

// Settle charges the idle cycles from the last charged one up to the
// core's position on the clock. The caller (the event-driven scheduler)
// ticks the core only when Wakeup says something happens, so the core's
// state is frozen over those cycles: no retirement, no dispatch, no
// completion. What a frozen Tick still does is count, and the count
// depends only on the frozen state, so n cycles settled in one batch
// charge exactly what n eager ones would, provided nothing changes the
// core's stall classification in between. The core settles itself
// before each such change it owns (Tick, memory completion) and before
// reading Stats (HashState, probes); a caller that flips the fetch Gate
// or reads Stats directly must Settle first. The charge mirrors one
// frozen Tick body: Cycles always, ROBStallCyc and FetchStalls when
// retire/fetch are blocked.
func (c *Core) Settle() { c.settleTo(c.clk.At(c.slot)) }

// SwitchOut settles the core and stops charging it: a descheduled
// core's cycles are not its own. SwitchIn restarts the charge from the
// core's position.
func (c *Core) SwitchOut() {
	c.Settle()
	c.charged = mem.WakeupNever
}

// SwitchIn resumes the charge SwitchOut stopped; see SwitchOut.
func (c *Core) SwitchIn() { c.charged = c.clk.At(c.slot) }

// settleTo charges the idle cycles (c.charged, pos]; see Settle.
func (c *Core) settleTo(pos uint64) {
	if pos <= c.charged {
		return
	}
	n := pos - c.charged
	c.charged = pos
	if c.Done() {
		return
	}
	c.Stats.Cycles += n
	gated := c.Gate != nil && !c.Gate()
	if c.count == c.cfg.ROB {
		c.Stats.ROBStallCyc += n
		if !gated {
			c.Stats.FetchStalls += n
		}
		return
	}
	if gated {
		return
	}
	if c.pendingValid &&
		(c.pendingRec.Kind == trace.KindLoad || c.pendingRec.Kind == trace.KindStore) &&
		(c.pendingReq != nil || c.lsqUsed >= c.cfg.LSQ) {
		// Dispatch blocked on L1 backpressure or a full LSQ: each stepped
		// cycle would count one fetch stall.
		c.Stats.FetchStalls += n
	}
}

func (c *Core) retire(now uint64) {
	retired := 0
	for retired < c.cfg.RetireWidth && c.count > 0 {
		e := &c.rob[c.head]
		if !e.done || e.doneAt > now {
			break
		}
		c.head = (c.head + 1) % c.cfg.ROB
		c.count--
		c.Stats.Instructions++
		retired++
	}
	if retired == 0 && c.count == c.cfg.ROB {
		c.Stats.ROBStallCyc++
	}
}

func (c *Core) fetch(now uint64) {
	if c.Gate != nil && !c.Gate() {
		return
	}
	fetched := 0
	for fetched < c.cfg.FetchWidth {
		if c.count == c.cfg.ROB {
			c.Stats.FetchStalls++
			return
		}
		// Drain a pending exec bundle first.
		if c.pendingExec > 0 {
			c.pushExec(now)
			c.pendingExec--
			fetched++
			continue
		}
		rec := c.nextRecord()
		if rec == nil {
			return
		}
		switch rec.Kind {
		case trace.KindExec:
			c.pendingExec = rec.Count
			c.pendingValid = false
			continue // loop re-enters the bundle branch
		case trace.KindLoad, trace.KindStore:
			if !c.dispatchMem(rec, now) {
				c.Stats.FetchStalls++
				return // keep rec pending, retry next cycle
			}
			c.pendingValid = false
			fetched++
		case trace.KindMarker:
			c.dispatchMarker(rec, now)
			c.pendingValid = false
			fetched++
		default:
			// Unknown record kinds are skipped defensively.
			c.pendingValid = false
		}
	}
}

// nextRecord returns the record being dispatched, fetching from the source
// when nothing is pending. A non-nil result stays pending until the caller
// clears it, so structural stalls never lose records.
func (c *Core) nextRecord() *trace.Record {
	if c.pendingValid {
		return &c.pendingRec
	}
	rec, ok := c.src.Next()
	if !ok {
		c.drained = true
		return nil
	}
	c.pendingRec = rec
	c.pendingValid = true
	return &c.pendingRec
}

func (c *Core) pushExec(now uint64) {
	c.rob[c.tail] = robEntry{done: true, doneAt: now + c.cfg.ExecLatency}
	c.tail = (c.tail + 1) % c.cfg.ROB
	c.count++
}

// memOp bundles an in-flight memory instruction: the request itself plus
// the completion state its Done callback needs. One arena carve per
// instruction replaces the request + closure heap allocations that used
// to dominate the dispatch path.
type memOp struct {
	c       *Core
	slot    int
	isLoad  bool
	freed   bool
	issueAt uint64
	req     mem.Request
	// boundDone caches the done method value: binding a method allocates,
	// so it happens once per op object, not once per instruction.
	boundDone func(cycle uint64)
}

// done completes the memory op: mark the load's ROB slot done and free
// the LSQ entry. The LSQ release flag lives here, not in the ROB entry:
// a store may retire (and its ROB slot be reused) before its fill
// returns, so the entry cannot be trusted at completion time. A load's
// slot is safe — loads cannot retire before their own completion.
func (o *memOp) done(cycle uint64) {
	c := o.c
	c.Settle() // the LSQ slot freed below may end an LSQ-full stall
	// A completion moves Wakeup earlier only by making the ROB head
	// retirable or by freeing a slot of a full LSQ; after any other the
	// cached wakeup still holds.
	if (o.isLoad && c.count > 0 && o.slot == c.head) || c.lsqUsed >= c.cfg.LSQ {
		c.wake.Mark()
	}
	if o.isLoad {
		c.rob[o.slot].done = true
		c.rob[o.slot].doneAt = cycle
		c.Stats.LoadLatencySum += cycle - o.issueAt
	}
	if !o.freed {
		o.freed = true
		c.lsqUsed--
	}
	// The request completed and the memory system dropped its pointer;
	// the core's own reference was cleared when dispatch was accepted
	// (completion cannot fire before acceptance). Recycle the op.
	c.opFree = append(c.opFree, o)
}

func (c *Core) newMemOp() *memOp {
	if n := len(c.opFree); n > 0 {
		o := c.opFree[n-1]
		c.opFree = c.opFree[:n-1]
		o.freed = false
		return o
	}
	if len(c.opArena) == 0 {
		c.opArena = make([]memOp, 128)
	}
	o := &c.opArena[0]
	c.opArena = c.opArena[1:]
	o.boundDone = o.done
	return o
}

func (c *Core) dispatchMem(rec *trace.Record, now uint64) bool {
	if c.lsqUsed >= c.cfg.LSQ {
		return false
	}
	isLoad := rec.Kind == trace.KindLoad
	// Build the request (and run the side-effecting PreAccess boundary
	// check) exactly once per instruction; a dispatch retry after L1
	// backpressure reuses the pending request.
	op := c.pendingOp
	if op == nil {
		t := mem.ReqStore
		if isLoad {
			t = mem.ReqLoad
		}
		op = c.newMemOp()
		op.c = c
		op.isLoad = isLoad
		op.req = mem.Request{
			Type:     t,
			Addr:     rec.Addr,
			Line:     mem.LineAddr(rec.Addr),
			PC:       rec.PC,
			Core:     c.ID,
			RegionID: int(rec.Aux),
			Issue:    now,
		}
		if c.PreAccess != nil {
			c.PreAccess(&op.req)
		}
		op.req.Done = op.boundDone
		c.pendingOp = op
		c.pendingReq = &op.req
	}

	slot := c.tail
	entry := robEntry{mem: true, usesLSQ: true}
	if !isLoad {
		// Stores retire through the write buffer without waiting for the
		// fill; the LSQ slot stays busy until the store completes.
		entry.done = true
		entry.doneAt = now + c.cfg.ExecLatency
	}
	// Refreshed on every dispatch attempt: the attempt that lands defines
	// the issue cycle and ROB slot, exactly as the per-attempt closure
	// rebuild used to.
	op.slot = slot
	op.issueAt = now
	c.rob[slot] = entry
	if !c.l1.TryEnqueue(&op.req) {
		return false
	}
	c.pendingOp = nil
	c.pendingReq = nil
	c.tail = (c.tail + 1) % c.cfg.ROB
	c.count++
	c.lsqUsed++
	if isLoad {
		c.Stats.Loads++
	} else {
		c.Stats.Stores++
	}
	return true
}

func (c *Core) dispatchMarker(rec *trace.Record, now uint64) {
	c.rob[c.tail] = robEntry{marker: true, done: true, doneAt: now + c.cfg.ExecLatency}
	c.tail = (c.tail + 1) % c.cfg.ROB
	c.count++
	c.Stats.Markers++
	if c.OnMarker != nil {
		c.OnMarker(*rec, now)
	}
}

// Occupancy reports ROB and LSQ occupancy for diagnostics.
func (c *Core) Occupancy() (rob, lsq int) { return c.count, c.lsqUsed }

// RegisterProbes registers this core's sampled series under prefix
// (e.g. "cpu0."): instantaneous ROB/LSQ occupancy plus a windowed IPC
// (instructions retired since the previous sample over cycles elapsed).
// Probes are pull-style, so the core's hot loop is untouched; a nil
// recorder is a no-op.
func (c *Core) RegisterProbes(tel *telemetry.Recorder, prefix string) {
	if tel == nil {
		return
	}
	var lastCycles, lastInstr uint64
	tel.Probe(prefix+"ipc", func(uint64) float64 {
		c.Settle()
		dc := c.Stats.Cycles - lastCycles
		di := c.Stats.Instructions - lastInstr
		lastCycles, lastInstr = c.Stats.Cycles, c.Stats.Instructions
		if dc == 0 {
			return 0
		}
		return float64(di) / float64(dc)
	})
	tel.Probe(prefix+"rob", func(uint64) float64 { return float64(c.count) })
	tel.Probe(prefix+"lsq", func(uint64) float64 { return float64(c.lsqUsed) })
}
