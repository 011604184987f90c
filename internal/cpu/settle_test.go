package cpu

import (
	"testing"

	"rnrsim/internal/mem"
	"rnrsim/internal/trace"
)

// frozenCore is one copy of a stalled core for the deferred-idle tests.
type frozenCore struct {
	c     *Core
	m     *stubMem
	gated *bool
}

// settleCase builds a core, drives it into a frozen stall with the
// memory ticking alongside, and reports the cycle it stopped at. Every
// call builds an identical, independent copy.
type settleCase struct {
	name  string
	cfg   Config
	trace func(b *trace.Builder)
	gated bool // close the fetch gate once warm
	mem   func(m *stubMem)
	warm  int
	// The frozen stall's per-cycle charge beyond Cycles.
	robStall, fetchStall bool
}

func (sc settleCase) build(t *testing.T) (frozenCore, uint64) {
	t.Helper()
	b := trace.NewBuilder(0)
	sc.trace(b)
	m := newStubMem(1 << 40) // nothing completes unless a test fires it
	if sc.mem != nil {
		sc.mem(m)
	}
	c := newCore(0, sc.cfg, b.Source(), cappedMem{m})
	gated := new(bool)
	c.Gate = func() bool { return !*gated }
	var now uint64
	for i := 0; i < sc.warm; i++ {
		now++
		tick(c, now)
		m.Tick(now)
	}
	*gated = sc.gated
	if w := c.Wakeup(now); w != mem.WakeupNever {
		t.Fatalf("%s: core not frozen after warm-up (wakeup %d at %d)", sc.name, w, now)
	}
	return frozenCore{c, m, gated}, now
}

// cappedMem adds the demand-capacity probe to stubMem, so a core facing
// a rejecting L1 sees the backpressure in Wakeup, as it does on a cache.
type cappedMem struct{ *stubMem }

func (m cappedMem) CanAcceptDemand() bool { return !m.rejectAll }

func settleCases() []settleCase {
	loads := func(n int) func(b *trace.Builder) {
		return func(b *trace.Builder) {
			for i := 0; i < n; i++ {
				b.Load(uint64(i), mem.Addr(0x1000+i*64), 8, -1)
			}
			b.Exec(100)
		}
	}
	small := Default()
	small.ROB, small.LSQ = 8, 8
	lsq := Default()
	lsq.LSQ = 2
	return []settleCase{
		{name: "rob-full", cfg: small, trace: func(b *trace.Builder) {
			b.Load(1, 0x1000, 8, -1)
			b.Exec(100)
		}, warm: 10, robStall: true, fetchStall: true},
		{name: "barrier-gated", cfg: Default(), trace: loads(1), gated: true, warm: 10},
		{name: "lsq-full", cfg: lsq, trace: loads(3), warm: 10, fetchStall: true},
		{name: "l1-backpressure", cfg: Default(), trace: loads(1),
			mem: func(m *stubMem) { m.rejectAll = true }, warm: 10, fetchStall: true},
	}
}

// skip moves fc's clock one cycle on without ticking the core: one idle
// cycle, charged when the core next settles.
func (fc frozenCore) skip() { fc.c.clk.Cycle++ }

// TestSettleMatchesEagerCharges: n idle cycles settled at once leave
// Stats identical to n cycles settled one by one, and to n real Ticks of
// the frozen core, in every stall classification.
func TestSettleMatchesEagerCharges(t *testing.T) {
	const n = 37
	for _, sc := range settleCases() {
		t.Run(sc.name, func(t *testing.T) {
			eager, now := sc.build(t)
			batched, _ := sc.build(t)
			ticked, _ := sc.build(t)
			before := eager.c.Stats
			for i := uint64(1); i <= n; i++ {
				eager.skip()
				eager.c.Settle()
				batched.skip()
				tick(ticked.c, now+i)
			}
			if batched.c.Stats == eager.c.Stats {
				// Not settled yet: only Settle may charge.
				t.Fatal("moving the clock charged Stats before Settle")
			}
			batched.c.Settle()
			if batched.c.Stats != eager.c.Stats {
				t.Errorf("batched %+v != eager %+v", batched.c.Stats, eager.c.Stats)
			}
			if ticked.c.Stats != eager.c.Stats {
				t.Errorf("ticked %+v != eager %+v", ticked.c.Stats, eager.c.Stats)
			}
			got := eager.c.Stats
			if got.Cycles-before.Cycles != n ||
				(got.ROBStallCyc-before.ROBStallCyc == n) != sc.robStall ||
				(got.FetchStalls-before.FetchStalls == n) != sc.fetchStall {
				t.Errorf("stall classification: %d cycles charged %+v -> %+v", n, before, got)
			}
			// Settling is idempotent.
			batched.c.Settle()
			if batched.c.Stats != eager.c.Stats {
				t.Error("a second Settle charged again")
			}
		})
	}
}

// TestSettleAcrossCompletion: a memory completion between idle cycles
// changes the stall classification (an LSQ slot frees), so the
// completion callback must charge the pending cycles under the old
// classification first.
func TestSettleAcrossCompletion(t *testing.T) {
	sc := settleCases()[2] // lsq-full
	eager, now := sc.build(t)
	batched, _ := sc.build(t)
	for i := uint64(1); i <= 20; i++ {
		eager.skip()
		eager.c.Settle()
		batched.skip()
	}
	now += 20
	eager.m.inflight[1].Complete(now)
	batched.m.inflight[1].Complete(now)
	if eager.c.Stats.FetchStalls == 0 {
		t.Fatal("lsq-full case charged no fetch stalls; the test would prove nothing")
	}
	for i := 0; i < 20; i++ {
		eager.skip()
		eager.c.Settle()
		batched.skip()
	}
	batched.c.Settle()
	if batched.c.Stats != eager.c.Stats {
		t.Errorf("batched %+v != eager %+v", batched.c.Stats, eager.c.Stats)
	}
}

// TestSettleBeforeGateFlip: the fetch gate is owned outside the core, so
// whoever flips it (the simulator's barrier) must Settle first. With
// that protocol batched charges equal eager ones; without it the cycles
// before the flip are charged under the wrong classification.
func TestSettleBeforeGateFlip(t *testing.T) {
	sc := settleCases()[2] // lsq-full: gated charges Cycles only, open adds FetchStalls
	sc.gated = true
	eager, _ := sc.build(t)
	batched, _ := sc.build(t)
	careless, _ := sc.build(t)
	for _, fc := range []frozenCore{eager, batched, careless} {
		for i := 0; i < 20; i++ {
			fc.skip()
			if fc.c == eager.c {
				fc.c.Settle()
			}
		}
	}
	batched.c.Settle()
	for _, fc := range []frozenCore{eager, batched, careless} {
		*fc.gated = false
		for i := 0; i < 20; i++ {
			fc.skip()
			if fc.c == eager.c {
				fc.c.Settle()
			}
		}
		fc.c.Settle()
	}
	if batched.c.Stats != eager.c.Stats {
		t.Errorf("batched %+v != eager %+v", batched.c.Stats, eager.c.Stats)
	}
	if careless.c.Stats == eager.c.Stats {
		t.Error("flipping the gate without Settle went unnoticed; the classification test is vacuous")
	}
}

// TestSwitchedOutCyclesNotCharged: the cycles between SwitchOut and
// SwitchIn are not the core's, even when it settles in between (a
// completion or a Stats read while descheduled); the cycles on either
// side are charged as if the span had not happened.
func TestSwitchedOutCyclesNotCharged(t *testing.T) {
	sc := settleCases()[0] // rob-full: Cycles, ROBStallCyc and FetchStalls
	switched, _ := sc.build(t)
	straight, _ := sc.build(t)
	for i := 0; i < 5; i++ {
		switched.skip()
		straight.skip()
	}
	switched.c.SwitchOut()
	for i := 0; i < 50; i++ {
		switched.skip()
		switched.c.Settle()
	}
	switched.c.SwitchIn()
	for i := 0; i < 7; i++ {
		switched.skip()
		straight.skip()
	}
	switched.c.Settle()
	straight.c.Settle()
	if switched.c.Stats != straight.c.Stats {
		t.Errorf("switched out %+v != never switched %+v", switched.c.Stats, straight.c.Stats)
	}
}

// TestWakeFlagCoversWakeupMoves: a completion that leaves the core's
// wake flag clear must leave Wakeup unchanged, since the event scheduler
// keeps serving the cached value. Loads complete out of order (per-line
// latencies) into a small LSQ, so completions at the ROB head, behind
// it, into a full LSQ and into a free one all occur.
func TestWakeFlagCoversWakeupMoves(t *testing.T) {
	cfg := Default()
	cfg.ROB, cfg.LSQ = 16, 4
	b := trace.NewBuilder(0)
	m := newStubMem(5)
	for i := 0; i < 400; i++ {
		addr := mem.Addr(0x10000 + i*64)
		m.latency[addr] = uint64(3 + (i*7)%23)
		b.Load(uint64(i), addr, 8, -1)
		b.Exec(uint64(i % 3))
	}
	c := newCore(0, cfg, b.Source(), m)
	flag := make([]uint64, 1)
	c.BindWakeFlag(mem.NewWakeFlag(flag, 0))
	var flagged, quiet int
	for now := uint64(1); now < 100000 && !c.Done(); now++ {
		tick(c, now)
		before, completed := c.Wakeup(now), len(m.inflight)
		flag[0] = 0
		m.Tick(now)
		if len(m.inflight) == completed {
			continue
		}
		if flag[0] != 0 {
			flagged++
		} else {
			quiet++
			if after := c.Wakeup(now); after != before {
				t.Fatalf("cycle %d: completion moved Wakeup %d -> %d without marking the wake flag", now, before, after)
			}
		}
	}
	if !c.Done() {
		t.Fatal("core never finished")
	}
	if flagged == 0 || quiet == 0 {
		t.Fatalf("completion mix not exercised: %d flagged, %d quiet cycles", flagged, quiet)
	}
}
