package bench

import (
	"math"
	"testing"

	"rnrsim/internal/apps"
	"rnrsim/internal/sim"
)

// TestComposedCyclesMatchDirectRun pins the 100-iteration composition
// (§VII-A.1, sim.Result.ComposedCycles) that every Fig. 6, 10 and 14
// number extrapolates: ComposedCycles(11) of the evaluated 5-iteration
// run must match iterations 1-11 of a directly simulated 12-iteration
// run. Per-iteration cycles alternate with the ping-ponging target's
// parity, and the composition's three replays average two iterations of
// one parity and one of the other; that alternation bounds the error,
// measured at 1.03% at worst (PageRank/amazon, no prefetcher).
func TestComposedCyclesMatchDirectRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	const bound = 0.015
	for _, job := range []struct{ workload, input string }{
		{"pagerank", "amazon"}, {"spcg", "bbmat"},
	} {
		short, err := apps.Build(job.workload, job.input, apps.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		long := buildIterations(job.workload, job.input, 12)
		for _, pf := range []sim.PrefetcherKind{sim.PFNone, sim.PFRnR} {
			cfg := sim.Test().WithPrefetcher(pf)
			five, err := sim.Run(cfg, short)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := sim.Run(cfg, long)
			if err != nil {
				t.Fatal(err)
			}
			composed := five.ComposedCycles(11)
			want := float64(direct.IterEnd[11] - direct.IterEnd[0])
			errFrac := composed/want - 1
			if math.Abs(errFrac) > bound {
				t.Errorf("%s/%s %s: ComposedCycles(11) = %.0f, direct iterations 1-11 take %.0f (%+.2f%%, bound ±%.1f%%)",
					job.workload, job.input, pf, composed, want, 100*errFrac, 100*bound)
			}
		}
	}
}

// buildIterations builds workload on its test-scale input with iters
// iterations and the default core count.
func buildIterations(workload, input string, iters int) *apps.App {
	cfg := apps.DefaultConfig()
	cfg.Iterations = iters
	if workload == "spcg" {
		m, _ := apps.MatrixInput(apps.ScaleTest, input)
		return apps.SpCG(m, input, cfg)
	}
	g, _ := apps.GraphInput(apps.ScaleTest, input)
	return apps.PageRank(g, input, cfg)
}
