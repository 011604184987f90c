package sim

import (
	"fmt"
	"slices"
	"testing"

	"rnrsim/internal/cache"
	"rnrsim/internal/mem"
	"rnrsim/internal/prefetch"
)

// TestL1EnqueueStampsL2FromPreviousCycle: the L2's slot follows the
// L1's, so while the L1 ticks at cycle now the L2 still reads now-1, and
// the miss the L1 sends down is ready at now-1+Latency.
func TestL1EnqueueStampsL2FromPreviousCycle(t *testing.T) {
	s, err := New(testConfig().WithPrefetcher(PFNone), testApp(t))
	if err != nil {
		t.Fatal(err)
	}
	l2 := s.l2s[0]
	for l2.Pending() == 0 {
		if s.Done() || s.clock.Cycle > 10_000 {
			t.Fatal("the L1 sent nothing to the L2")
		}
		s.step(true)
	}
	now := s.clock.Cycle
	want := now - 1 + s.cfg.L2.Latency
	if want <= now {
		t.Fatalf("L2 latency %d too short to read the stamp through Wakeup", s.cfg.L2.Latency)
	}
	if got := l2.Wakeup(now); got != want {
		t.Errorf("L1 tick at cycle %d queued its miss in the L2 ready at %d, want %d", now, got, want)
	}
}

// stampPrefetcher is a cycle-driven prefetcher that issues one line at
// cycle at from its wake-table slot.
type stampPrefetcher struct {
	at     uint64
	line   mem.Addr
	issued bool
}

func (p *stampPrefetcher) OnAccess(cache.AccessInfo, prefetch.IssueFunc) {}
func (p *stampPrefetcher) BindWakeFlag(mem.WakeFlag)                     {}

func (p *stampPrefetcher) Wakeup(uint64) uint64 {
	if p.issued {
		return WakeupNever
	}
	return p.at
}

func (p *stampPrefetcher) OnCycle(now uint64, issue prefetch.IssueFunc) {
	if !p.issued && now >= p.at {
		issue(p.line)
		p.issued = true
	}
}

// TestPrefetcherSlotStampsL2FromCurrentCycle: the prefetcher's slot
// follows its L2's, so a prefetch issued at cycle now is ready at
// now+Latency.
func TestPrefetcherSlotStampsL2FromCurrentCycle(t *testing.T) {
	s, err := New(testConfig().WithPrefetcher(PFRnR), testApp(t))
	if err != nil {
		t.Fatal(err)
	}
	pf := &stampPrefetcher{at: 1, line: 0x7000_0000}
	s.prefs[0] = pf
	s.bindPrefetcherWake(0)
	s.step(true)
	if !pf.issued {
		t.Fatal("the prefetcher slot did not tick at cycle 1")
	}
	if got, want := s.l2s[0].Wakeup(1), 1+s.cfg.L2.Latency; got != want {
		t.Errorf("prefetch issued at cycle 1 ready in the L2 at %d, want %d", got, want)
	}
}

// wbTap sits between the LLC and DRAM. It hands each writeback the LLC
// sends from its own tick to DRAM with a completion callback, so the
// cycle DRAM completes the posted write at is seen, and checks it
// against the cycle the LLC ticks at. (A writeback evicted by a fill
// arrives during DRAM's tick instead, where DRAM reads the current
// cycle.)
type wbTap struct {
	s       *System
	n       int
	mistime string
}

func (w *wbTap) TryEnqueue(r *mem.Request) bool {
	s := w.s
	if r.Type != mem.ReqWriteback || s.wake[s.clock.Cursor-1].comp != s.llcs[0] {
		return s.mc.TryEnqueue(r)
	}
	now, at := s.clock.Cycle, uint64(0)
	r.Done = func(c uint64) { at = c }
	ok := s.mc.TryEnqueue(r)
	r.Done = nil
	if ok {
		w.n++
		if at != now-1 && w.mistime == "" {
			w.mistime = fmt.Sprintf("LLC writeback at cycle %d completed at %d, want %d", now, at, now-1)
		}
	}
	return ok
}

// TestLLCWritebackCompletesAtDRAMLaggedCycle: DRAM's slot is the last,
// so a posted write the LLC sends during its tick at cycle now completes
// at now-1, the cycle DRAM still reads.
func TestLLCWritebackCompletesAtDRAMLaggedCycle(t *testing.T) {
	s, err := New(testConfig().WithPrefetcher(PFNone), testApp(t))
	if err != nil {
		t.Fatal(err)
	}
	tap := &wbTap{s: s}
	s.llcs[0].SetLower(tap)
	if _, err := runAll(s); err != nil {
		t.Fatal(err)
	}
	if tap.n == 0 {
		t.Fatal("the LLC wrote nothing back from its tick; the test would prove nothing")
	}
	if tap.mistime != "" {
		t.Error(tap.mistime)
	}
}

// probeTicker is a scripted wake-table component: Wakeup reports next,
// and Tick logs the cycle, forgets next and runs then.
type probeTicker struct {
	name string
	next uint64
	log  *[]string
	then func(now uint64)
}

func (p *probeTicker) Wakeup(uint64) uint64 { return p.next }

func (p *probeTicker) Tick(now uint64) {
	*p.log = append(*p.log, fmt.Sprintf("%s@%d", p.name, now))
	p.next = WakeupNever
	if p.then != nil {
		p.then(now)
	}
}

// probeSystem is a machine of probe components only, one slot each in
// the given order.
func probeSystem(probes ...*probeTicker) *System {
	s := &System{ctx: newCtxSwitch(CtxSwitchConfig{})}
	s.allocWake(len(probes))
	for _, p := range probes {
		s.wake = append(s.wake, wakeSlot{comp: p})
	}
	s.markStale(0)
	s.clock.Cursor = len(s.wake)
	return s
}

// TestDueWalkVisitsSameCycleMarksInSlotOrder: a slot an earlier slot's
// tick marks is visited in the same cycle; a slot a later slot's tick
// marks waits for the next cycle.
func TestDueWalkVisitsSameCycleMarksInSlotOrder(t *testing.T) {
	var log []string
	a := &probeTicker{name: "a", next: WakeupNever, log: &log}
	b := &probeTicker{name: "b", next: WakeupNever, log: &log}
	c := &probeTicker{name: "c", next: WakeupNever, log: &log}
	s := probeSystem(a, b, c)
	s.step(true) // cycle 1: every slot evaluated, none due
	a.next = 2
	s.flag(0).Mark()
	a.then = func(now uint64) {
		if now == 2 { // wake the later slot c now
			c.next = now
			s.flag(2).Mark()
		}
	}
	c.then = func(now uint64) { // wake the earlier slots a and b now
		a.next, b.next = now, now
		s.flag(0).Mark()
		s.flag(1).Mark()
	}
	s.step(true)
	s.step(true)
	if want := []string{"a@2", "c@2", "a@3", "b@3"}; !slices.Equal(log, want) {
		t.Errorf("ticks %v, want %v", log, want)
	}
}

// TestTimedSlotTicksAtItsCycle: a slot whose cached wakeup is a future
// cycle ticks at that cycle, not before, without being evaluated again,
// and nextWakeup finds it.
func TestTimedSlotTicksAtItsCycle(t *testing.T) {
	var log []string
	a := &probeTicker{name: "a", next: WakeupNever, log: &log}
	b := &probeTicker{name: "b", next: 5, log: &log}
	s := probeSystem(a, b)
	s.step(true) // cycle 1: b evaluated to 5
	evals := s.WakeEvals()
	for s.clock.Cycle < 4 {
		s.step(true)
	}
	if len(log) != 0 || s.WakeEvals() != evals {
		t.Fatalf("before cycle 5: ticks %v, %d more evaluations", log, s.WakeEvals()-evals)
	}
	if next := s.nextWakeup(100); next != 5 {
		t.Errorf("nextWakeup = %d, want 5", next)
	}
	s.advanceTo(5)
	if want := []string{"b@5"}; !slices.Equal(log, want) {
		t.Errorf("ticks %v, want %v", log, want)
	}
}
