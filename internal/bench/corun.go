package bench

import (
	"context"
	"fmt"
	"strings"

	"rnrsim/internal/apps"
	"rnrsim/internal/multicore"
	"rnrsim/internal/sim"
)

// The co-run experiment: the multi-programmed axis the multicore
// subsystem unlocks. PageRank and spCG share a 2-core machine — one
// barrier group per job, disjoint address slices, MESI-lite coherence in
// front of a 2-bank LLC — under four prefetch configurations: none,
// per-core RnR, the Pickle-style cooperative cross-core LLC prefetcher,
// and both together. Each job's per-core metrics are compared against
// its own solo run on the 1-core build of the same machine, so the
// slowdown column isolates what LLC sharing (and the prefetchers'
// response to it) costs each program.
//
// Every run, solo reference included, is a co-run through the suite's
// memoised run path (RunCoRunContext), the same path rnrd's co-run jobs
// take, so Plan records the experiment's 12 co-runs and Prewarm runs
// them concurrently. Each co-run's result depends only on its key, so
// the table is byte-identical no matter the prewarm parallelism, which
// TestCoRunExperimentDeterministic pins.

// coRunJobs is the composed workload pair, shared with the test.
var coRunJobs = []multicore.JobSpec{
	{Workload: "pagerank", Input: "urand"},
	{Workload: "spcg", Input: "bbmat"},
}

// coRunVariant is one prefetch configuration of the co-run grid.
type coRunVariant struct {
	name string
	pf   sim.PrefetcherKind // per-core (private L2) prefetcher
	xc   bool               // attach the cross-core LLC prefetcher
}

var coRunVariants = []coRunVariant{
	{"none", sim.PFNone, false},
	{"rnr", sim.PFRnR, false},
	{"crosscore", sim.PFNone, true},
	{"rnr+crosscore", sim.PFRnR, true},
}

// CoRunMachine is the co-run machine: base resized to one core per
// job, with the coherence directory and a 2-bank shared LLC attached,
// pf on every core's private L2 and, with crossCore, the cooperative
// cross-core LLC prefetcher. A solo reference is the same machine at
// cores == 1, so the only variable is the co-scheduling.
func CoRunMachine(base sim.Config, cores int, pf sim.PrefetcherKind, crossCore bool) sim.Config {
	cfg := base
	cfg.Cores = cores
	cfg.Prefetcher = pf
	cfg.Coherence = true
	cfg.LLCBanks = 2
	cfg.CrossCore = crossCore
	return cfg
}

// CoRunKey is the memoisation key of a co-run:
// "corun:<jobs>/<prefetcher>/<xcore>", the jobs in core order joined by
// "+" and the last field "xcore" when the cross-core prefetcher is
// attached, empty otherwise. rnrd derives a co-run job's content
// address from it.
func CoRunKey(jobs []multicore.JobSpec, pf sim.PrefetcherKind, crossCore bool) string {
	names := make([]string, len(jobs))
	for i, j := range jobs {
		names[i] = j.String()
	}
	x := ""
	if crossCore {
		x = "xcore"
	}
	return fmt.Sprintf("corun:%s/%s/%s", strings.Join(names, "+"), pf, x)
}

// RunCoRunContext simulates (memoised, singleflight, under the same
// cancellation contract as RunContext) the jobs composed one per core
// on CoRunMachine. Each fresh run composes its app anew; composed apps
// are not memoised.
func (s *Suite) RunCoRunContext(ctx context.Context, jobs []multicore.JobSpec, pf sim.PrefetcherKind, crossCore bool) (*sim.Result, error) {
	return s.run(ctx, PlannedRun{
		Key:     CoRunKey(jobs, pf, crossCore),
		cfg:     CoRunMachine(s.Config, len(jobs), pf, crossCore),
		compose: func(s *Suite) (*apps.App, error) { return multicore.Compose(s.Scale, jobs) },
	})
}

// coRun is the experiment's co-run; the job list is static, so an error
// is an experiment-definition bug.
func (s *Suite) coRun(jobs []multicore.JobSpec, v coRunVariant) *sim.Result {
	r, err := s.RunCoRunContext(context.Background(), jobs, v.pf, v.xc)
	if err != nil {
		panic(err)
	}
	return r
}

// jobFinish returns the cycle at which barrier group g's last recorded
// iteration opened — job g's finish line in a co-run, where Result.
// Cycles spans whichever job ran longest. Falls back to the whole-run
// cycle count when the group recorded no iteration ends.
func jobFinish(r *sim.Result, g int) uint64 {
	ends := r.IterEnd
	if len(r.GroupIterEnd) > g {
		ends = r.GroupIterEnd[g]
	}
	for i := len(ends) - 1; i >= 0; i-- {
		if ends[i] != 0 {
			return ends[i]
		}
	}
	return r.Cycles
}

// CoRun runs the multi-programmed co-run experiment (see the package
// comment above): per-core accuracy, coverage and slowdown versus each
// job's solo run, across the four prefetch configurations.
func (s *Suite) CoRun() *Table {
	t := newTable("corun", "variant", "core", "job", "accuracy", "coverage",
		"slowdown vs solo", "xcore issued")

	// Solo references: each job alone on the 1-core build of the same
	// machine, once per variant (the prefetch configuration changes the
	// solo runtime too) plus the prefetch-free baseline for coverage
	// denominators.
	type soloKey struct {
		job     int
		variant string
	}
	solos := make(map[soloKey]*sim.Result)
	for k := range coRunJobs {
		for _, v := range coRunVariants {
			solos[soloKey{k, v.name}] = s.coRun(coRunJobs[k:k+1], v)
		}
	}

	for _, v := range coRunVariants {
		co := s.coRun(coRunJobs, v)
		for k, job := range coRunJobs {
			solo := solos[soloKey{k, v.name}]
			soloBase := solos[soloKey{k, "none"}]
			l2 := co.CoreL2[k]
			acc := 0.0
			if l2.PrefetchFillsDone > 0 {
				acc = float64(l2.PrefetchUseful+l2.PrefetchLate) / float64(l2.PrefetchFillsDone)
				if acc > 1 {
					acc = 1
				}
			}
			cov := 0.0
			if base := soloBase.L2.DemandMisses; base > 0 {
				cov = float64(l2.PrefetchUseful+l2.PrefetchLate) / float64(base)
				if cov > 1 {
					cov = 1
				}
			}
			slow := 0.0
			if sf := jobFinish(solo, 0); sf > 0 {
				slow = float64(jobFinish(co, k)) / float64(sf)
			}
			xissued := "-"
			if co.CrossCore != nil {
				xissued = fmt.Sprint(co.CrossCore.Issued)
			}
			t.AddRow(v.name, fmt.Sprint(k), job.String(),
				f2(acc), f2(cov), f2(slow), xissued)
		}
	}
	t.Note("solo reference: the same job, machine and prefetch configuration " +
		"on one core with the LLC to itself; slowdown > 1 is the cost of " +
		"sharing. Accuracy/coverage are per-core private-L2 metrics, so the " +
		"cross-core LLC prefetcher shows up in slowdown and the issued column")
	return t
}
