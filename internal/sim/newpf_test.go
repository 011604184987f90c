package sim

import "testing"

func TestBestOffsetAndDominoRunEndToEnd(t *testing.T) {
	app := testApp(t)
	base := runOne(t, testConfig(), app)
	for _, pf := range []PrefetcherKind{PFBestOffset, PFDomino} {
		res := runOne(t, testConfig().WithPrefetcher(pf), app)
		if res.Instructions != base.Instructions {
			t.Errorf("%s retired %d instructions, baseline %d", pf, res.Instructions, base.Instructions)
		}
		// Domino must issue prefetches on the irregular input; Best-Offset
		// legitimately turns itself off when no offset scores (that IS the
		// design), so only bookkeeping sanity is asserted for it.
		if pf == PFDomino && res.TotalPrefetches() == 0 {
			t.Errorf("%s issued no prefetches", pf)
		}
		if acc := res.Accuracy(); acc < 0 || acc > 1 {
			t.Errorf("%s accuracy %f out of range", pf, acc)
		}
	}
}

func TestDominoBeatsGHBOnInterleavedStreams(t *testing.T) {
	// The motivation example of §II: interleaved per-core streams create
	// shared addresses with divergent successors. Pair-indexed Domino
	// should reach at least GHB's usefulness on the irregular input.
	app := testApp(t)
	ghb := runOne(t, testConfig().WithPrefetcher(PFGHB), app)
	dom := runOne(t, testConfig().WithPrefetcher(PFDomino), app)
	// Useful counts timely hits plus late merges, the ChampSim convention.
	useful := func(r *Result) uint64 { return r.L2.PrefetchUseful + r.L2.PrefetchLate }
	if useful(dom) == 0 && useful(ghb) > 0 {
		t.Errorf("domino useless (%d) where GHB works (%d)", useful(dom), useful(ghb))
	}
}

func TestIterationStatSlicing(t *testing.T) {
	app := testApp(t)
	res := runOne(t, testConfig().WithPrefetcher(PFRnR), app)
	if len(res.IterL2) != app.Iterations {
		t.Fatalf("iteration snapshots = %d, want %d", len(res.IterL2), app.Iterations)
	}
	// Snapshots must be monotonically non-decreasing in every counter.
	for i := 1; i < len(res.IterL2); i++ {
		if res.IterL2[i].DemandAccesses < res.IterL2[i-1].DemandAccesses {
			t.Errorf("iteration %d snapshot regressed", i)
		}
	}
	// The steady-state slice must exclude the warm-up/record prefix.
	steady := res.steadyL2()
	if steady.DemandAccesses >= res.L2.DemandAccesses {
		t.Error("steadyL2 did not subtract the warm-up iterations")
	}
	if steady.PrefetchUseful > res.L2.PrefetchUseful {
		t.Error("steadyL2 produced more useful prefetches than the whole run")
	}
}
