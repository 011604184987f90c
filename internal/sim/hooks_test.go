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
			if got := s.pfWake[c] != nil; got != cycleDriven[kind] {
				t.Errorf("%s core %d: cycle-driven = %v, want %v", kind, c, got, cycleDriven[kind])
			}
			l2 := s.l2s[c]
			hooked := l2.OnAccess != nil && l2.OnFill != nil
			if want := kind != PFNone; hooked != want {
				t.Errorf("%s core %d: L2 prefetcher hooks installed = %v, want %v", kind, c, hooked, want)
			}
		}
	}

	// A context switch swaps in a fresh instance; the cached CycleDriven
	// assertion must follow it.
	s, err := New(testConfig().WithPrefetcher(PFDroplet), app)
	if err != nil {
		t.Fatal(err)
	}
	old := s.droplets[0]
	s.wirePrefetcher(0)
	if s.droplets[0] == old || any(s.pfWake[0]) != any(s.droplets[0]) {
		t.Error("pfWake did not follow the prefetcher instance swap")
	}
}
