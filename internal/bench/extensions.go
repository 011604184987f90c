package bench

import (
	"context"
	"fmt"

	"rnrsim/internal/apps"
	"rnrsim/internal/rnr"
	"rnrsim/internal/sim"
)

// The experiments in this file go beyond the paper's figures, covering
// claims the paper makes in prose: §IV-C (context-switch resilience) and
// §V-E (multicore scalability).

// CtxSwitchVariant enables the §IV-C periodic-descheduling injection.
func CtxSwitchVariant() Variant {
	sw := sim.CtxSwitchConfig{Period: 150_000, Duration: 10_000}
	return Variant{Tag: "ctxsw", Mutate: func(c *sim.Config) { c.CtxSwitch = sw }}
}

// CtxSwitch measures §IV-C: under periodic OS context switches, RnR
// resumes from its in-memory metadata while conventional prefetchers
// retrain from scratch.
func (s *Suite) CtxSwitch() *Table {
	t := newTable("ctx-switch", "prefetcher", "no-switch speedup", "switching speedup",
		"accuracy kept")
	const w, in = "pagerank", "urand"

	base := s.Baseline(w, in)
	baseSw := s.Run(w, in, sim.PFNone, CtxSwitchVariant())

	for _, pf := range []sim.PrefetcherKind{sim.PFGHB, sim.PFMISB, sim.PFBingo, sim.PFRnR} {
		plain := s.Run(w, in, pf, Variant{})
		switched := s.Run(w, in, pf, CtxSwitchVariant())
		t.AddRow(string(pf),
			f2(plain.ComposedSpeedup(base, s.ComposeIters)),
			f2(switched.ComposedSpeedup(baseSw, s.ComposeIters)),
			pct(switched.Accuracy()*100))
	}
	t.Note("paper §IV-C: RnR needs no retraining — 86.5 B of state is " +
		"saved/restored and the metadata survives in process memory")
	return t
}

// CoreScaling measures §V-E: hardware and metadata overhead growth with
// core count, and whether the speedup survives partitioned execution.
func (s *Suite) CoreScaling() *Table {
	t := newTable("core-scaling", "cores", "speedup", "metadata KB total", "metadata % of input",
		"HW bytes total")
	budget := rnr.Budget().TotalBytes()
	for _, cores := range []int{1, 2, 4, 8} {
		base := s.scalingRun(cores, sim.PFNone)
		r := s.scalingRun(cores, sim.PFRnR)
		t.AddRow(fmt.Sprint(cores),
			f2(r.ComposedSpeedup(base, s.ComposeIters)),
			f1(float64(r.RnR.MetadataBytes())/1024),
			pct(r.StorageOverheadPct()),
			fmt.Sprintf("%.0f", budget*float64(cores)))
	}
	t.Note("paper §V-E: per-core state grows linearly (trivially small); " +
		"partitioning keeps the per-core metadata roughly constant, so the " +
		"total tracks the miss count, not the core count")
	return t
}

// scalingRun runs the core-scaling sweep's PageRank, partitioned over
// cores, under pf. It is memoised under "scaling:<cores>/<pf>".
func (s *Suite) scalingRun(cores int, pf sim.PrefetcherKind) *sim.Result {
	cfg := s.Config
	cfg.Cores = cores
	cfg.Prefetcher = pf
	r, err := s.run(context.Background(), PlannedRun{
		Key: fmt.Sprintf("scaling:%d/%s", cores, pf),
		cfg: cfg,
		compose: func(s *Suite) (*apps.App, error) {
			appCfg := apps.DefaultConfig()
			appCfg.Cores = cores
			return apps.BuildConfig("pagerank", "amazon", s.Scale, appCfg)
		},
	})
	if err != nil {
		panic(err)
	}
	return r
}

// RecordAllVariant enables the naive every-access recording §III rejects.
func RecordAllVariant() Variant {
	return Variant{
		Tag:    "recordall",
		Mutate: func(c *sim.Config) { c.RnRRecordAll = true },
	}
}

// LLCDestVariant redirects replay prefetches to the shared LLC (§III).
func LLCDestVariant() Variant {
	return Variant{
		Tag:    "llcdest",
		Mutate: func(c *sim.Config) { c.RnRPrefetchToLLC = true },
	}
}

// DesignChoices measures the §III alternatives the paper rejects: naive
// every-access recording (vs L2-miss recording) and prefetching into the
// shared LLC (vs the private L2).
func (s *Suite) DesignChoices() *Table {
	t := newTable("design-choices", "variant", "speedup", "accuracy", "metadata KB",
		"storage overhead")
	const w, in = "pagerank", "urand"
	base := s.Baseline(w, in)
	row := func(name string, r *sim.Result) {
		t.AddRow(name,
			f2(r.ComposedSpeedup(base, s.ComposeIters)),
			f2(r.Accuracy()),
			f1(float64(r.RnR.MetadataBytes())/1024),
			pct(r.StorageOverheadPct()))
	}
	row("L2-miss record, L2 dest (paper)", s.Run(w, in, sim.PFRnR, Variant{}))
	row("record every access", s.Run(w, in, sim.PFRnR, RecordAllVariant()))
	row("prefetch into LLC", s.Run(w, in, sim.PFRnR, LLCDestVariant()))
	t.Note("paper §III: recording every access wastes storage and bandwidth " +
		"(locality-filtered misses suffice); the L2 destination avoids the " +
		"latency left on the table by an LLC destination")
	return t
}
