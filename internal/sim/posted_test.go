package sim

import (
	"testing"

	"rnrsim/internal/mem"
)

// TestPostedIssuePathsAllocateNothing: the System's posted issue paths
// (an L2 prefetch, a cross-core LLC prefetch and a MISB metadata read and
// write) refill one scratch request, and the receivers copy it, so once
// warm a prefetch that travels to DRAM and fills allocates nothing.
func TestPostedIssuePathsAllocateNothing(t *testing.T) {
	cfg := testConfig()
	cfg.CrossCore = true
	s, err := New(cfg, testApp(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runAll(s); err != nil {
		t.Fatal(err)
	}
	issue, meta := s.issueFns[0], s.metaHook(0)
	quiet := func() bool {
		return s.l2s[0].Pending() == 0 && s.llcs[0].Pending() == 0 && s.mc.Pending() == 0
	}
	line := mem.Addr(0x7000_0000) // far above the app's layout: always a miss
	fills := s.l2s[0].Stats.PrefetchFills
	round := func() {
		line += 0x1040
		if !issue(line) || !s.xcore.Issue(1, line+0x40) {
			t.Fatal("prefetch rejected by an idle cache")
		}
		meta(false, line+0x80_0000)
		meta(true, line+0x80_0040)
		for i := 0; i < 2000 && !quiet(); i++ {
			s.Tick()
		}
	}
	// One measured run of many rounds counts allocations exactly (see
	// TestDirtyEvictionAllocatesNothing in internal/cache).
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 200; i++ {
			round()
		}
	})
	if allocs != 0 {
		t.Errorf("posted issue -> Tick -> fill allocates %.0f objects over 200 rounds, want 0", allocs)
	}
	if got := s.l2s[0].Stats.PrefetchFills - fills; got < 400 {
		t.Errorf("%d L2 prefetch fills: the loop did not exercise the miss path", got)
	}
}
