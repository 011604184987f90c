package sim

import "testing"

// TestPrefetcherHooksByKind pins which hooks each prefetcher kind gets.
// The simulator finds a prefetcher's optional hooks by type assertion on
// the instance, never from its kind, so this table is the one place the
// cycle-driven kinds are listed: only DROPLET (its fill drain) and the
// RnR engine (its replay loop) act from the cycle loop, and the
// no-prefetch baseline attaches nothing to the L2.
func TestPrefetcherHooksByKind(t *testing.T) {
	app := testApp(t)
	cycleDriven := map[PrefetcherKind]bool{PFDroplet: true, PFRnR: true, PFRnRCombined: true}
	for _, kind := range AllPrefetchers {
		s, err := New(testConfig().WithPrefetcher(kind), app)
		if err != nil {
			t.Fatal(err)
		}
		for c := range s.cores {
			if _, got := slotPrefetcher(s, c); got != cycleDriven[kind] {
				t.Errorf("%s core %d: cycle-driven = %v, want %v", kind, c, got, cycleDriven[kind])
			}
			l2 := s.l2s[c]
			hooked := l2.OnAccess != nil && l2.OnFill != nil
			if want := kind != PFNone; hooked != want {
				t.Errorf("%s core %d: L2 prefetcher hooks installed = %v, want %v", kind, c, hooked, want)
			}
		}
	}

	// A context switch swaps in a fresh instance; the wake table's
	// prefetcher slot must follow it.
	s, err := New(testConfig().WithPrefetcher(PFDroplet), app)
	if err != nil {
		t.Fatal(err)
	}
	old := s.droplets[0]
	s.wirePrefetcher(0)
	if pf, _ := slotPrefetcher(s, 0); s.droplets[0] == old || pf != any(s.droplets[0]) {
		t.Error("the prefetcher slot did not follow the instance swap")
	}
}

// slotPrefetcher returns the prefetcher instance in core c's wake-table
// slot and whether there is one.
func slotPrefetcher(s *System, c int) (any, bool) {
	if t, ok := s.wake[s.pfSlots[c]].comp.(*pfTicker); ok {
		return t.pf, true
	}
	return nil, false
}
