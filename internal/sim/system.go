package sim

import (
	"context"
	"fmt"

	"rnrsim/internal/apps"
	"rnrsim/internal/audit"
	"rnrsim/internal/cache"
	"rnrsim/internal/coherence"
	"rnrsim/internal/cpu"
	"rnrsim/internal/dram"
	"rnrsim/internal/mem"
	"rnrsim/internal/obs"
	"rnrsim/internal/prefetch"
	"rnrsim/internal/rnr"
	"rnrsim/internal/telemetry"
	"rnrsim/internal/trace"
)

// System is one assembled machine bound to one workload. Build it with
// New, run it with Run (or step it with Tick for tests).
type System struct {
	cfg Config
	app *apps.App

	cores    []*cpu.Core
	l1s      []*cache.Cache
	l2s      []*cache.Cache
	llcs     []*cache.Cache // LLC banks; one element for the monolithic LLC
	ideal    *idealLLC
	mc       *dram.Controller
	engines  []*rnr.Engine
	prefs    []prefetch.Prefetcher // nil under PFNone
	droplets []*prefetch.Droplet   // for resolver rebinding on base swaps

	// Multicore extensions (nil when the config leaves them off).
	dir   *coherence.Directory // MESI-lite directory over the private caches
	xcore *prefetch.CrossCore  // cooperative LLC prefetcher
	// staleHits counts demand hits on private lines the directory lost
	// track of — always zero under the coherence protocol; audited.
	staleHits uint64

	issueFns []prefetch.IssueFunc // one per core, built once
	// post is the scratch request every posted issue path (prefetches,
	// cross-core prefetches, MISB metadata) refills: the receiving cache
	// or controller copies what it accepts (see mem.Backend), so the
	// same storage serves the next issue.
	post mem.Request

	ctx *ctxSwitch

	// clock is the machine's one clock: the cycle being simulated and
	// the cursor of the tick-order walk, read by every component at its
	// wake-table slot (see mem.Clock).
	clock mem.Clock
	// Barrier groups: groups[g] lists the member cores of barrier g,
	// coreGrp/coreSlot locate a core inside its group. Single-program
	// apps have one group holding every core (the legacy shape); the
	// multicore composer gives each job its own group so co-scheduled
	// programs free-run against each other. Group 0's per-iteration
	// bookkeeping occupies the legacy Result/state-hash positions.
	barriers  []*barrier
	groups    [][]int
	coreGrp   []int
	coreSlot  []int
	iterEnd   [][]uint64
	iterSnaps [][]cache.Stats // cumulative group-L2 stats at each iteration end

	// Telemetry (nil = disabled; the Tick fast path is one pointer
	// compare). See internal/telemetry and registerTelemetry.
	tel         *telemetry.Recorder
	sampleEvery uint64
	lastIterEnd []uint64 // per barrier group, for iteration spans

	// Audit (nil = disabled; same one-pointer-compare fast path). See
	// internal/audit and registerAudit.
	aud        *audit.Checker
	auditEvery uint64

	// Flight recorder (nil = disabled; the cache-event fast path is one
	// pointer compare). See internal/obs and registerObs.
	obsRec *obs.Recorder

	// ctxOn, fixed at construction, skips the context-switch state
	// machine on the Tick fast path when injection is disabled.
	ctxOn bool

	// Event-driven scheduler state (see run).
	nextSampleAt uint64 // next telemetry sample event (WakeupNever when off)
	nextAuditAt  uint64 // next audit sweep event (WakeupNever when off)
	ticked       uint64 // cycles actually simulated (diagnostics/tests only)
	wakeEvals    uint64 // wakeups evaluated (diagnostics/tests only; see WakeEvals)
	// busy records that the last simulated cycle ticked some component;
	// the run loop then simulates the next cycle directly instead of
	// scanning for the global minimum wakeup (see run).
	busy bool

	// wake is the wake table: the cached wakeup of every scheduled
	// component, one slot each in tick order (see wake.go). stale and
	// timed are bitsets over its slots: the slots whose wakeup must be
	// recomputed, and those whose cached wakeup is a finite cycle, no
	// earlier than timedMin.
	wake     []wakeSlot
	stale    []uint64
	timed    []uint64
	timedMin uint64
	// pfSlots holds each core's prefetcher slot in wake when that
	// prefetcher is cycle-driven, and 0 (a core's slot) otherwise.
	pfSlots []int

	// Done memoisation: Tick sets doneDirty, Done recomputes at most once
	// per tick, and coresDone latches the (monotone) all-cores-drained
	// scan so steady-state Done checks skip the core loop entirely.
	doneDirty  bool
	doneCached bool
	coresDone  bool
}

// WakeupNever is re-exported for components and tests that interact with
// the scheduler through the sim package.
const WakeupNever = mem.WakeupNever

// barrier implements the SPMD iteration barrier of §VI for one barrier
// group: member workers wait at iteration ends until every member (or a
// drained member) arrives. A single-program app has one barrier over
// every core; a composed multi-programmed app has one per job.
type barrier struct {
	members []int  // core ids, fixed at construction
	waiting []bool // parallel to members
	arrived int    // members waiting
	iter    []int32
	done    func(core int) bool
	onOpen  func(iter int32)
	// release, if set, runs for each waiting core just before an open
	// clears its waiting bit. Its fetch gate is about to flip without any
	// core-local event: the simulator charges the core's deferred idle
	// cycles under the old gate and voids its cached wakeup.
	release func(core int)
}

func newBarrier(members []int) *barrier {
	return &barrier{
		members: members,
		waiting: make([]bool, len(members)),
		iter:    make([]int32, len(members)),
	}
}

func (b *barrier) arrive(slot int, iter int32) {
	if !b.waiting[slot] {
		b.arrived++
	}
	b.waiting[slot] = true
	b.iter[slot] = iter
	b.maybeOpen()
}

func (b *barrier) maybeOpen() {
	for i, c := range b.members {
		if !b.waiting[i] && !b.done(c) {
			return
		}
	}
	iter := int32(-1)
	for i := range b.waiting {
		if b.waiting[i] {
			iter = b.iter[i]
			if b.release != nil {
				b.release(b.members[i])
			}
		}
		b.waiting[i] = false
	}
	b.arrived = 0
	if b.onOpen != nil && iter >= 0 {
		b.onOpen(iter)
	}
}

func (b *barrier) gated(slot int) bool { return b.waiting[slot] }

// New wires a machine for the given workload.
func New(cfg Config, app *apps.App) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Cores != app.Cores {
		return nil, fmt.Errorf("sim: config has %d cores, app %q has %d", cfg.Cores, app.Name, app.Cores)
	}
	s := &System{cfg: cfg, app: app, mc: dram.New(cfg.DRAM)}
	if err := s.buildGroups(); err != nil {
		return nil, err
	}
	s.ctx = newCtxSwitch(cfg.CtxSwitch)
	s.ctxOn = cfg.CtxSwitch.Period != 0
	s.tel = cfg.Telemetry
	s.sampleEvery = cfg.Telemetry.SampleInterval()
	s.mc.Tel = s.tel

	// Shared LLC (real or ideal) on top of DRAM. LLCBanks > 1 splits the
	// capacity into independently scheduled banks, line-interleaved; the
	// single-bank path is byte-identical to the historical monolithic
	// LLC (one-element slice, same tick position, same hash fold).
	var llcBackend mem.Backend
	if cfg.IdealLLC {
		s.ideal = newIdealLLC(cfg.LLC.Latency, s.mc)
		llcBackend = s.ideal
	} else {
		banks := cfg.LLCBanks
		if banks < 2 {
			banks = 1
		}
		s.llcs = make([]*cache.Cache, banks)
		for b := range s.llcs {
			bcfg := cfg.LLC
			if banks > 1 {
				bcfg.Name = fmt.Sprintf("%s.b%d", cfg.LLC.Name, b)
				bcfg.SizeBytes = cfg.LLC.SizeBytes / uint64(banks)
			}
			s.llcs[b] = cache.New(bcfg)
			s.llcs[b].SetLower(s.mc)
		}
		if banks == 1 {
			llcBackend = s.llcs[0]
		} else {
			llcBackend = &bankRouter{sys: s}
		}
	}

	sources := app.Sources()
	s.cores = make([]*cpu.Core, cfg.Cores)
	s.l1s = make([]*cache.Cache, cfg.Cores)
	s.l2s = make([]*cache.Cache, cfg.Cores)
	s.engines = make([]*rnr.Engine, cfg.Cores)
	s.prefs = make([]prefetch.Prefetcher, cfg.Cores)
	s.droplets = make([]*prefetch.Droplet, cfg.Cores)
	s.issueFns = make([]prefetch.IssueFunc, cfg.Cores)

	for c := 0; c < cfg.Cores; c++ {
		l2cfg := cfg.L2
		l2cfg.Name = fmt.Sprintf("L2.%d", c)
		l2 := cache.New(l2cfg)
		l2.SetLower(llcBackend)
		l1cfg := cfg.L1
		l1cfg.Name = fmt.Sprintf("L1D.%d", c)
		l1 := cache.New(l1cfg)
		l1.SetLower(l2)
		core := cpu.New(c, cfg.CPU, sources[c], l1)

		s.cores[c], s.l1s[c], s.l2s[c] = core, l1, l2
		s.wirePrefetcher(c)
		s.wireCore(c)
	}
	for g := range s.barriers {
		b := s.barriers[g]
		b.done = func(core int) bool { return s.cores[core].Done() }
		b.release = func(core int) {
			s.cores[core].Settle()
			s.flag(core).Mark()
		}
		b.onOpen = s.makeOnOpen(g)
	}
	s.bindWakeTable()
	if cfg.Coherence {
		s.wireCoherence()
	}
	if cfg.CrossCore {
		s.wireCrossCore()
	}
	s.registerObs()
	s.registerTelemetry()
	s.registerAudit()
	// Sampling and audit sweeps become scheduled events so the event-
	// driven loop fires them at exactly the cycles the stepped loop would
	// (the scheduler never jumps past nextSampleAt/nextAuditAt).
	s.nextSampleAt = WakeupNever
	if s.tel != nil {
		s.nextSampleAt = s.sampleEvery
	}
	s.nextAuditAt = WakeupNever
	if s.aud != nil {
		s.nextAuditAt = s.auditEvery
	}
	s.doneDirty = true
	return s, nil
}

// wirePrefetcher builds core c's prefetcher stack for Config.Prefetcher
// (none under PFNone).
func (s *System) wirePrefetcher(c int) {
	cfg, app := s.cfg, s.app
	kind := cfg.Prefetcher
	switch kind {
	case PFNextLine:
		s.prefs[c] = prefetch.NewNextLine()
	case PFStream:
		s.prefs[c] = prefetch.NewStream()
	case PFGHB:
		s.prefs[c] = prefetch.NewGHB()
	case PFMISB:
		m := prefetch.NewMISB()
		m.Meta = s.metaHook(c)
		s.prefs[c] = m
	case PFBingo:
		s.prefs[c] = prefetch.NewBingo()
	case PFBestOffset:
		s.prefs[c] = prefetch.NewBestOffset()
	case PFDomino:
		s.prefs[c] = prefetch.NewDomino()
	case PFSteMS:
		s.prefs[c] = prefetch.NewSteMS()
	case PFDroplet:
		d := prefetch.NewDroplet()
		edge := app.EdgeRegion
		d.EdgeRegion = func(l mem.Addr) bool { return edge.Contains(l) }
		d.Resolve = app.Resolve
		s.droplets[c] = d
		s.prefs[c] = d
	case PFIMP:
		p := prefetch.NewIMP()
		edge := app.EdgeRegion
		p.IndexRegion = func(l mem.Addr) bool { return edge.Contains(l) }
		p.Resolve = app.Resolve
		s.prefs[c] = p
	case PFRnR, PFRnRCombined:
		e := rnr.NewEngine(c, s.mc)
		e.Control = cfg.RnRControl
		e.DefaultWindow = cfg.RnRWindow
		if e.DefaultWindow == 0 {
			e.DefaultWindow = cfg.DefaultWindowLines()
		}
		// Pace control's prefetch distance: a quarter of the L2, far
		// enough to hide fill latency, small enough that pending lines
		// survive until their demand.
		e.LeadEntries = int(cfg.L2.SizeBytes / 64 / 4)
		// And in reads: at most one L2's worth of demand churn may pass
		// between a prefetch and its demand.
		e.LeadReadsCap = int(cfg.L2.SizeBytes / 64)
		e.RecordAllAccesses = cfg.RnRRecordAll
		if cfg.RnRPrefetchToLLC {
			// §III ablation: the LLC-destination variant widens the lead
			// bounds to the LLC's capacity.
			e.LeadEntries = int(cfg.LLC.SizeBytes / 64 / 4)
			e.LeadReadsCap = int(cfg.LLC.SizeBytes / 64)
		}
		s.engines[c] = e
		if kind == PFRnRCombined {
			// RnR for the target structure, next-line for everything
			// else, fenced out of the RnR range (§V-D).
			nl := &prefetch.RegionFilter{
				Inner:    prefetch.NewNextLine(),
				Excluded: e.InRange,
			}
			s.prefs[c] = prefetch.Combine{e, nl}
		} else {
			s.prefs[c] = e
		}
	}
	// wirePrefetcher also runs on context switch-in (instance swap): bind
	// the swapped-in instance to the wake table (New binds the first one
	// in bindWakeTable).
	if s.wake != nil {
		s.bindPrefetcherWake(c)
	}
}

// wireCore connects the core's hooks, the L2's hooks and the prefetcher.
func (s *System) wireCore(c int) {
	core, l2 := s.cores[c], s.l2s[c]
	engine := s.engines[c]

	issue := s.issueFunc(c)
	s.issueFns[c] = issue
	// The hooks resolve s.prefs[c] at call time so a context switch can
	// swap in a freshly-reset prefetcher (see ctxswitch.go). Swaps keep
	// the kind, so PFNone never needs the hooks.
	if s.prefs[c] != nil {
		l2.OnAccess = func(ev cache.AccessInfo) { s.prefs[c].OnAccess(ev, issue) }
		l2.OnFill = func(line mem.Addr, prefetchFill bool, cycle uint64) {
			if fo, ok := s.prefs[c].(prefetch.FillObserver); ok {
				fo.OnFill(line, prefetchFill, cycle)
			}
		}
	}
	if engine != nil {
		core.PreAccess = engine.PreAccess
		l2.OnEvict = engine.OnEvict
	}

	grpBarrier, slot := s.barriers[s.coreGrp[c]], s.coreSlot[c]
	core.OnMarker = func(rec trace.Record, cycle uint64) {
		if engine != nil {
			engine.HandleMarker(rec, cycle)
		}
		if rec.Marker == trace.MarkAddrBaseSet && rec.Aux == 0 &&
			s.droplets[c] != nil && s.app.MakeResolver != nil {
			s.droplets[c].Resolve = s.app.MakeResolver(rec.Addr)
		}
		if rec.Marker == trace.MarkIterEnd {
			grpBarrier.arrive(slot, rec.Aux)
		}
	}
	core.Gate = func() bool { return !grpBarrier.gated(slot) }
}

// makeOnOpen builds barrier group g's open hook: per-iteration cycle
// stamps and cumulative L2 snapshots over the group's members. Group 0
// additionally drives the flight recorder's iteration axis and the
// OnIteration progress callback, preserving their single-group
// semantics (a composed run's extra groups keep their own bookkeeping
// but do not multiplex those single-stream consumers).
func (s *System) makeOnOpen(g int) func(iter int32) {
	return func(iter int32) {
		// The iteration tables are indexed by the trace's iteration
		// number; a corrupt or adversarial trace (the fuzzer emits
		// MarkIterEnd with Aux around 2^20) must not be able to grow
		// them without bound — each slot carries a cache.Stats snapshot,
		// so an unchecked append was an OOM (found by fuzzing). Real
		// workloads run a few dozen iterations; past the cap the barrier
		// still opens, only the bookkeeping is dropped.
		if int(iter) < maxTrackedIterations {
			for int(iter) >= len(s.iterEnd[g]) {
				s.iterEnd[g] = append(s.iterEnd[g], 0)
				s.iterSnaps[g] = append(s.iterSnaps[g], cache.Stats{})
			}
			s.iterEnd[g][iter] = s.clock.Cycle
			var snap cache.Stats
			for _, c := range s.groups[g] {
				snap.Add(s.l2s[c].Stats)
			}
			s.iterSnaps[g][iter] = snap
		}
		if g == 0 {
			if s.obsRec != nil {
				// The recorder caps hostile indices itself.
				s.obsRec.IterEnd(int(iter), s.clock.Cycle)
			}
			if s.cfg.OnIteration != nil {
				s.cfg.OnIteration(int(iter), s.clock.Cycle)
			}
		}
		if s.tel != nil {
			// One span per iteration per group, ending exactly at
			// Result.IterEnd[iter] (group 0 keeps the historical track
			// name; extra groups get their own track).
			track := "iterations"
			if g > 0 {
				track = fmt.Sprintf("iterations.g%d", g)
			}
			s.tel.Span(track, fmt.Sprintf("iter %d", iter), s.lastIterEnd[g], s.clock.Cycle)
			s.lastIterEnd[g] = s.clock.Cycle
		}
	}
}

// buildGroups resolves the app's barrier groups (nil = one SPMD group
// over every core), validates that they partition the cores, and sizes
// the per-group iteration bookkeeping.
func (s *System) buildGroups() error {
	groups := s.app.Groups
	if len(groups) == 0 {
		all := make([]int, s.cfg.Cores)
		for c := range all {
			all[c] = c
		}
		groups = [][]int{all}
	}
	s.groups = groups
	s.coreGrp = make([]int, s.cfg.Cores)
	s.coreSlot = make([]int, s.cfg.Cores)
	for c := range s.coreGrp {
		s.coreGrp[c] = -1
	}
	s.barriers = make([]*barrier, len(groups))
	for g, members := range groups {
		if len(members) == 0 {
			return fmt.Errorf("sim: app %q barrier group %d is empty", s.app.Name, g)
		}
		for slot, c := range members {
			if c < 0 || c >= s.cfg.Cores {
				return fmt.Errorf("sim: app %q barrier group %d names core %d of %d", s.app.Name, g, c, s.cfg.Cores)
			}
			if s.coreGrp[c] != -1 {
				return fmt.Errorf("sim: app %q assigns core %d to two barrier groups", s.app.Name, c)
			}
			s.coreGrp[c] = g
			s.coreSlot[c] = slot
		}
		s.barriers[g] = newBarrier(members)
	}
	for c, g := range s.coreGrp {
		if g == -1 {
			return fmt.Errorf("sim: app %q leaves core %d without a barrier group", s.app.Name, c)
		}
	}
	s.iterEnd = make([][]uint64, len(groups))
	s.iterSnaps = make([][]cache.Stats, len(groups))
	s.lastIterEnd = make([]uint64, len(groups))
	return nil
}

// bankOf selects the LLC bank covering line (bank 0 when monolithic):
// the lowest line-address bits above the 64 B offset interleave lines
// round-robin across banks.
func (s *System) bankOf(line mem.Addr) int {
	return int((uint64(line) >> 6) & uint64(len(s.llcs)-1))
}

// bankRouter is the mem.Backend the private L2s sit on when the LLC is
// banked: it forwards each request to the bank owning its line.
type bankRouter struct{ sys *System }

func (r *bankRouter) TryEnqueue(req *mem.Request) bool {
	return r.sys.llcs[r.sys.bankOf(req.Line)].TryEnqueue(req)
}

// wireCoherence attaches the MESI-lite directory: every private fill
// registers a sharer, a store invalidates remote private copies, and a
// private eviction drops the sharer bit once neither private level
// holds the line (the hierarchy is non-inclusive, so the bit must
// survive as long as either level has it). Invalidations bypass OnEvict
// by design — remote stores must not perturb RnR's eviction
// bookkeeping — so with one core, where no remote store exists, the
// wiring is observationally inert and state hashes are unchanged.
func (s *System) wireCoherence() {
	s.dir = coherence.NewDirectory(s.cfg.Cores)
	for c := range s.cores {
		c := c
		l1, l2 := s.l1s[c], s.l2s[c]
		l1.OnAccess = func(ev cache.AccessInfo) {
			if ev.Type == mem.ReqStore {
				for _, v := range s.dir.OnStore(c, ev.Line) {
					s.l1s[v].Invalidate(ev.Line)
					s.l2s[v].Invalidate(ev.Line)
				}
			} else if ev.Hit && s.aud != nil && !s.dir.HasSharer(c, ev.Line) {
				// A demand hit on a line the directory does not credit
				// to this core is a stale copy a remote store could
				// never invalidate. Checked only under audit: the map
				// lookup is too hot for unaudited runs. The sweep in
				// registerAudit reports the count.
				s.staleHits++
			}
		}
		l1.OnFill = func(line mem.Addr, _ bool, _ uint64) { s.dir.OnFill(c, line) }
		l1.OnEvict = func(line mem.Addr, _ bool, _ uint64) {
			if !l2.Lookup(line) {
				s.dir.OnEvict(c, line)
			}
		}
		prevFill := l2.OnFill
		l2.OnFill = func(line mem.Addr, pf bool, cycle uint64) {
			s.dir.OnFill(c, line)
			if prevFill != nil {
				prevFill(line, pf, cycle)
			}
		}
		prevEvict := l2.OnEvict
		l2.OnEvict = func(line mem.Addr, unused bool, cycle uint64) {
			if !l1.Lookup(line) {
				s.dir.OnEvict(c, line)
			}
			if prevEvict != nil {
				prevEvict(line, unused, cycle)
			}
		}
	}
}

// wireCrossCore attaches the cooperative LLC prefetcher: each bank's
// demand-miss stream trains the shared correlation table, and predicted
// successors are issued into whichever bank owns them, tagged with the
// consuming core. Purely reactive — it participates in the event
// scheduler only through the wake-dirty flags its TryPrefetch calls
// set on the receiving banks.
func (s *System) wireCrossCore() {
	s.xcore = prefetch.NewCrossCore(s.cfg.Cores)
	s.xcore.Issue = func(core int, line mem.Addr) bool {
		s.post.Init(mem.ReqPrefetch, line, 0, core, s.clock.Cycle)
		return s.llcs[s.bankOf(line)].TryPrefetch(&s.post)
	}
	for b := range s.llcs {
		bank := s.llcs[b]
		bank.OnAccess = func(ev cache.AccessInfo) {
			// notifyAccess already filters writebacks and prefetches;
			// what remains is the demand traffic the L2s missed. Merges
			// joined an in-flight miss that already trained the table.
			if !ev.Hit && !ev.Merged {
				s.xcore.OnMiss(ev)
			}
		}
	}
}

// issueFunc returns the prefetch-issue path into core c's L2 (or the
// shared LLC under the §III destination ablation).
func (s *System) issueFunc(c int) prefetch.IssueFunc {
	if s.cfg.RnRPrefetchToLLC && len(s.llcs) > 0 {
		return func(line mem.Addr) bool {
			s.post.Init(mem.ReqPrefetch, line, 0, c, s.clock.Cycle)
			return s.llcs[s.bankOf(line)].TryPrefetch(&s.post)
		}
	}
	l2 := s.l2s[c]
	return func(line mem.Addr) bool {
		s.post.Init(mem.ReqPrefetch, line, 0, c, s.clock.Cycle)
		return l2.TryPrefetch(&s.post)
	}
}

// metaHook returns MISB's off-chip metadata path.
func (s *System) metaHook(c int) func(write bool, addr mem.Addr) {
	return func(write bool, addr mem.Addr) {
		t := mem.ReqMetaRead
		if write {
			t = mem.ReqMetaWrite
		}
		s.post.Init(t, addr, 0, c, s.clock.Cycle)
		// Best effort: a full queue drops the transaction; the traffic
		// model is what matters for MISB.
		s.mc.TryEnqueue(&s.post)
	}
}

// Tick advances the machine one cycle, ticking every component. It is
// the stepped engine's cycle body and the way tests step a machine.
func (s *System) Tick() { s.step(false) }

// step simulates one cycle. Both engines share this body, and so the
// per-cycle tick order: ctx switch (clock cursor 0), then the wake table
// front to back (see bindWakeTable), then the end-of-cycle events
// (cursor past every slot).
//
// The gate policy decides which components tick. With gated false
// (always tick, the stepped engine) every component ticks and no wakeup
// is consulted, so the stepped engine evaluates none. With gated true
// (the event engine) the walk visits only the due set (tickDue): each
// stale slot's wakeup is recomputed just-in-time — in tick order, so
// work enqueued upstream earlier in the same cycle is visible — and a
// slot ticks when its wakeup has come. Every other component is idle
// this cycle and costs nothing: its clock is the shared one, and a core
// charges idle cycles lazily (cpu.Core.Settle). This is the event
// engine's dense-region fast path: in regions where *some* component
// acts every cycle (so the global next-wakeup jump degenerates to
// stepping), most individual components are still idle, and a skipped
// component Tick is provably a no-op by the same wakeup contract that
// justifies multi-cycle jumps. State evolution is byte-identical under
// both policies; the event-vs-stepped differentials hold it to that.
//
// The stale marks keep the wake table valid for the gated policy; the
// always-tick policy never reads the table, so they are inert there.
func (s *System) step(gated bool) {
	s.clock.Cycle++
	s.clock.Cursor = 0
	s.ticked++
	s.doneDirty = true
	now := s.clock.Cycle
	busy := false
	if s.ctxOn {
		outBefore := s.ctx.out
		s.ctx.tick(s, now)
		busy = s.ctx.out != outBefore // a switch fired
	}
	first := s.firstScheduled()
	ticked := true
	if gated {
		ticked = s.tickDue(first, now)
	} else {
		for i := first; i < len(s.wake); i++ {
			s.clock.Cursor = i + 1
			s.wake[i].comp.Tick(now)
		}
		s.markStale(first)
	}
	s.clock.Cursor = len(s.wake)
	s.endCycle(now)
	s.busy = busy || ticked
}

// endCycle runs the end-of-cycle events both engines share: barrier
// opens, then the telemetry sample and audit sweep when due. An open
// releases the waiting members, so a barrier none of whose members waits
// is not checked: the check would find nothing to do.
func (s *System) endCycle(now uint64) {
	for _, b := range s.barriers {
		if b.arrived > 0 {
			b.maybeOpen()
		}
	}
	if s.tel != nil && now >= s.nextSampleAt {
		// Record the last crossed sampleEvery multiple, not now: a caller
		// stepping the clock in jumps may land past the multiple, and the
		// sample must carry the cycle stamp the stepped engine would have
		// used. (The event-driven scheduler additionally never jumps past
		// nextSampleAt, because probes read live state — e.g. cpu ipc
		// reads Stats.Cycles — so the machine must be ticked at exactly
		// the sample cycle for the values to match the stepped engine.)
		stamp := now - now%s.sampleEvery
		s.settleCores()
		s.tel.Sample(stamp)
		s.nextSampleAt = stamp + s.sampleEvery
	}
	if s.aud != nil && now >= s.nextAuditAt {
		s.settleCores()
		s.aud.Check(now)
		s.nextAuditAt = now - now%s.auditEvery + s.auditEvery
	}
}

// settleCores charges every core's deferred idle cycles (see
// cpu.Core.Settle) ahead of a read of core Stats.
func (s *System) settleCores() {
	for _, c := range s.cores {
		c.Settle()
	}
}

// Done reports whether every core has drained and the memory system is
// quiet. The scan is memoised: Tick invalidates, so repeated Done calls
// between ticks (the run loops make two per cycle) cost one bool check,
// and the per-core scan latches once all cores drain — core doneness is
// monotone (a drained core never refills), the memory side is not (a
// posted writeback can leave the controller momentarily quiet).
func (s *System) Done() bool {
	if s.doneDirty {
		s.doneDirty = false
		s.doneCached = s.computeDone()
	}
	return s.doneCached
}

func (s *System) computeDone() bool {
	if !s.coresDone {
		for _, c := range s.cores {
			if !c.Done() {
				return false
			}
		}
		s.coresDone = true
	}
	for i := range s.l1s {
		if s.l1s[i].Pending() > 0 || s.l2s[i].Pending() > 0 {
			return false
		}
	}
	for _, llc := range s.llcs {
		if llc.Pending() > 0 {
			return false
		}
	}
	return s.mc.Pending() == 0
}

// TickedCycles reports how many cycles were actually simulated (as
// opposed to skipped by the event-driven scheduler). Diagnostics only —
// deliberately not part of Result, which must be engine-independent.
func (s *System) TickedCycles() uint64 { return s.ticked }

// Cycle reports the current simulated cycle.
func (s *System) Cycle() uint64 { return s.clock.Cycle }

// Run drives the machine to completion and returns the collected result.
func Run(cfg Config, app *apps.App) (*Result, error) {
	return RunContext(context.Background(), cfg, app)
}

// RunContext is Run with cancellation: the tick loop polls ctx every
// CancelCheckInterval cycles, so a cancelled simulation stops within one
// tick batch instead of running to completion.
func RunContext(ctx context.Context, cfg Config, app *apps.App) (*Result, error) {
	s, err := New(cfg, app)
	if err != nil {
		return nil, err
	}
	return s.RunAllContext(ctx)
}

// CancelCheckInterval is the tick-batch granularity at which
// RunAllContext polls its context: cancellation latency is bounded by
// one batch of simulated cycles, while the per-cycle hot path stays
// free of context checks.
const CancelCheckInterval = 4096

// maxTrackedIterations bounds the per-iteration bookkeeping (IterEnd
// cycle stamps and cumulative L2 snapshots) with the flight recorder's
// cap. Iterations past it still open the barrier, fire OnIteration and
// emit telemetry spans; only the per-iteration statistics are dropped.
const maxTrackedIterations = obs.MaxTrackedIterations

// CounterRunsCancelled names the telemetry.Default counter incremented
// every time a simulation run is abandoned because its context was
// cancelled (client disconnect, job timeout, daemon shutdown).
const CounterRunsCancelled = "sim.runs_cancelled"

var runsCancelled = telemetry.Default.Counter(CounterRunsCancelled)

// RunAllContext drives an assembled system to completion, checking ctx
// every CancelCheckInterval cycles. A cancelled run returns a wrapped
// ctx error (matching errors.Is against context.Canceled or
// context.DeadlineExceeded) and increments CounterRunsCancelled.
//
// Two engines drive the same cycle body (step): the event-driven
// scheduler (default) jumps straight to the next cycle at which any
// component, sample, audit sweep or context switch can act, and the
// legacy cycle-stepped loop (Config.ForceCycleStepped) ticks every cycle. Results, state
// hashes, telemetry and audit sweeps are byte-identical between the two;
// the differential tests in event_test.go and the fuzz harness hold the
// engines to that.
func (s *System) RunAllContext(ctx context.Context) (*Result, error) {
	maxCycles := s.cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 2_000_000_000
	}
	if err := s.run(ctx, maxCycles); err != nil {
		return nil, err
	}
	s.settleCores()
	if s.tel != nil && s.clock.Cycle%s.sampleEvery != 0 {
		s.tel.Sample(s.clock.Cycle) // capture the final, post-drain state
	}
	if s.aud != nil {
		s.aud.Check(s.clock.Cycle) // one final sweep over the drained machine
		if err := s.aud.Err(); err != nil {
			return nil, fmt.Errorf("sim: %s on %s/%s: %w",
				s.cfg.Name, s.app.Name, s.app.Input, err)
		}
	}
	return s.collect(), nil
}

// run drives the machine to completion in batches of
// CancelCheckInterval cycles, with the same cancellation, maxCycles and
// audit-abort points under both engines. The stepped engine
// (Config.ForceCycleStepped) simulates every cycle with the always-tick
// policy. The event engine asks every component for its wakeup and
// simulates only the minimum. Cycles in between are provably inert, and
// skipping them costs nothing: every component reads the shared clock
// (advanceTo), and the cores charge the skipped cycles lazily
// (cpu.Core.Settle). The global scan only runs after an idle cycle:
// while components keep acting, the loop simulates cycle after cycle
// through the gated step.
func (s *System) run(ctx context.Context, maxCycles uint64) error {
	stepped := s.cfg.ForceCycleStepped
	for !s.Done() {
		if err := ctx.Err(); err != nil {
			runsCancelled.Inc()
			return fmt.Errorf("sim: %s on %s/%s cancelled at cycle %d: %w",
				s.cfg.Name, s.app.Name, s.app.Input, s.clock.Cycle, err)
		}
		batchEnd := s.clock.Cycle + CancelCheckInterval
		for !s.Done() && s.clock.Cycle < batchEnd {
			if s.clock.Cycle >= maxCycles {
				return fmt.Errorf("sim: %s on %s/%s exceeded %d cycles",
					s.cfg.Name, s.app.Name, s.app.Input, maxCycles)
			}
			switch {
			case stepped:
				s.Tick()
			case s.busy:
				// Dense regime: some component acted last cycle, so the
				// global scan would most likely return s.clock.Cycle+1 anyway.
				// Simulating that cycle directly is always sound — a gated
				// cycle with nothing due is exactly a skipped one — and
				// the next idle cycle falls back to the scan.
				s.step(true)
			default:
				limit := batchEnd
				if maxCycles < limit {
					limit = maxCycles
				}
				s.advanceTo(s.nextWakeup(limit))
			}
		}
		// A violation aborts the run at the next tick-batch boundary,
		// so a violating run stops within one batch of the failing
		// sweep.
		if s.aud != nil {
			if err := s.aud.Err(); err != nil {
				return fmt.Errorf("sim: %s on %s/%s: %w",
					s.cfg.Name, s.app.Name, s.app.Input, err)
			}
		}
	}
	return nil
}

// nextWakeup returns the next cycle worth simulating: the minimum over
// all component wakeups and scheduled events (telemetry sample, audit
// sweep, context switch), clamped to (now, limit] for the current cycle
// now. Wakeups at or before now — legal under the contract, meaning "as
// soon as possible" — are treated as now+1, never skipped. The scan
// early-exits once the minimum hits now+1 since nothing can beat it.
func (s *System) nextWakeup(limit uint64) uint64 {
	now := s.clock.Cycle
	min := limit
	consider := func(w uint64) bool {
		if w <= now {
			w = now + 1
		}
		if w < min {
			min = w
		}
		return min == now+1
	}
	if s.ctxOn && consider(s.ctx.wakeup()) {
		return min
	}
	if s.tel != nil && consider(s.nextSampleAt) {
		return min
	}
	if s.aud != nil && consider(s.nextAuditAt) {
		return min
	}
	// While descheduled the cores are frozen — their wakeups are
	// meaningless until the switch-in (already counted above) — and they
	// must not drag the scheduler into dense stepping. A slot neither
	// stale nor timed waits on external input, so only those two sets
	// are walked, in slot order like step's walk.
	for i := nextIn(s.stale, s.timed, s.firstScheduled()); i < len(s.wake); i = nextIn(s.stale, s.timed, i+1) {
		at := s.wake[i].at
		if s.stale[i>>6]&(1<<(i&63)) != 0 {
			at = s.evaluate(i, now)
		}
		if consider(at) {
			return min
		}
	}
	return min
}

// firstScheduled is the first wake-table slot that can act: past the
// core slots while the process is switched out, since a descheduled
// process's cores make no progress (the memory system still drains).
func (s *System) firstScheduled() int {
	if s.ctx.out {
		return len(s.cores)
	}
	return 0
}

// advanceTo jumps the machine to cycle next and simulates it. Only the
// clock moves over the skipped cycles (s.clock.Cycle, next): every
// component reads it, and a core charges the skipped cycles when it next
// settles, the way a stepped run would have charged them.
func (s *System) advanceTo(next uint64) {
	s.clock.Cycle = next - 1
	s.step(true)
}

func (s *System) collect() *Result {
	s.settleCores()
	r := &Result{
		ConfigName: s.cfg.Name,
		Prefetcher: s.cfg.Prefetcher,
		App:        s.app.Name,
		Input:      s.app.Input,
		Cycles:     s.clock.Cycle,
		Iterations: s.app.Iterations,
		IterEnd:    append([]uint64(nil), s.iterEnd[0]...),
		IterL2:     append([]cache.Stats(nil), s.iterSnaps[0]...),
		DRAM:       s.mc.Stats,
		InputBytes: s.app.InputBytes,
		Check:      s.app.Check,
		StateHash:  s.stateHash(),
		CoreHashes: s.coreHashes(),
	}
	if len(s.groups) > 1 {
		r.GroupIterEnd = make([][]uint64, len(s.groups))
		for g := range s.groups {
			r.GroupIterEnd[g] = append([]uint64(nil), s.iterEnd[g]...)
		}
	}
	for c := range s.cores {
		st := s.cores[c].Stats
		r.CoreStats = append(r.CoreStats, st)
		r.Instructions += st.Instructions
		r.L1.Add(s.l1s[c].Stats)
		r.L2.Add(s.l2s[c].Stats)
		r.CoreL2 = append(r.CoreL2, s.l2s[c].Stats)
		if s.engines[c] != nil {
			addRnRStats(&r.RnR, s.engines[c].Stats)
		}
	}
	for _, llc := range s.llcs {
		r.LLC.Add(llc.Stats)
	}
	if s.dir != nil {
		st := s.dir.Stats
		r.Coherence = &st
	}
	if s.xcore != nil {
		st := s.xcore.Stats
		r.CrossCore = &st
	}
	s.collectObs(r)
	return r
}

func addRnRStats(dst *rnr.Stats, s rnr.Stats) {
	dst.StructReads += s.StructReads
	dst.RecordedEntries += s.RecordedEntries
	dst.RecordedWindows += s.RecordedWindows
	dst.SeqOverflows += s.SeqOverflows
	dst.MetaWriteLines += s.MetaWriteLines
	dst.MetaReadLines += s.MetaReadLines
	dst.TLBLookups += s.TLBLookups
	dst.Prefetches += s.Prefetches
	dst.Replays += s.Replays
	dst.Pauses += s.Pauses
	dst.Resumes += s.Resumes
	dst.EarlyPrefetches += s.EarlyPrefetches
	dst.OutOfWindow += s.OutOfWindow
	dst.SeqTableBytes += s.SeqTableBytes
	dst.DivTableBytes += s.DivTableBytes
	dst.ReplayStructMisses += s.ReplayStructMisses
	dst.ReplayMissesCovered += s.ReplayMissesCovered
	dst.SkippedEntries += s.SkippedEntries
}
