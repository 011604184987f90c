// Command rnrsim runs one workload/input under one or more prefetcher
// configurations on the scaled Table II machine and prints the paper's
// headline metrics for each against the no-prefetch baseline.
//
// Usage:
//
//	rnrsim -workload pagerank -input urand -prefetchers rnr,nextline
//	rnrsim -workload spcg -input bbmat -scale test -window 64
//	rnrsim -prefetchers rnr,bingo,misb,droplet -j 4   # simulate 4-wide
//
// With -j > 1 the selected prefetchers simulate concurrently over a
// bounded worker pool; rows still print in the order given on the
// command line (each simulation is independent and deterministic, so
// the output is identical to a serial run). -j 1 streams rows as they
// finish, exactly as before.
//
// Observability (see DESIGN.md "Observability"):
//
//	rnrsim -workload pagerank -input amazon -prefetchers rnr \
//	       -metrics out.jsonl -trace-out trace.json -sample-interval 5000
//
// -metrics writes a cycle-sampled JSONL series (IPC, MPKI, occupancies,
// rnr.replay_distance, ...); -trace-out writes Chrome trace-event JSON —
// open it at https://ui.perfetto.dev or chrome://tracing. With several
// prefetchers the prefetcher name is inserted before the extension
// (out.rnr.jsonl). -cpuprofile/-memprofile write runtime/pprof profiles
// of the simulator itself.
//
// -obs attaches the prefetch-lifecycle flight recorder (see DESIGN.md
// "Prefetch lifecycle observability"): every prefetch is attributed to
// one outcome, latency structure lands in histograms, and RnR replay
// gets a divergence score. -json writes each run's rnrsim.v1 export
// (lifecycle and histogram sections included under -obs) — the input
// cmd/rnrreport renders into a report.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"

	"rnrsim/internal/apps"
	"rnrsim/internal/audit"
	"rnrsim/internal/bench"
	"rnrsim/internal/multicore"
	"rnrsim/internal/obs"
	"rnrsim/internal/rnr"
	"rnrsim/internal/sim"
	"rnrsim/internal/telemetry"
)

func main() {
	workload := flag.String("workload", "pagerank", "pagerank, hyperanf or spcg")
	input := flag.String("input", "urand", "input name (see DESIGN.md Table III)")
	scale := flag.String("scale", "bench", "input scale: test, bench or large")
	cores := flag.Int("cores", 0, "core-count override for the SPMD workload (0 = machine default)")
	corun := flag.String("corun", "",
		`multi-programmed co-run "workload.input,workload.input,...": one program per core behind a `+
			`coherent 2-bank shared LLC (overrides -workload/-input; conflicts with -cores)`)
	crosscore := flag.Bool("crosscore", false,
		"attach the cooperative cross-core LLC prefetcher (trained on LLC miss streams, issues across cores)")
	pfs := flag.String("prefetchers", "rnr,rnr-combined,nextline",
		"comma-separated prefetchers ("+allPrefetchers()+")")
	window := flag.Uint64("window", 0, "RnR window size in lines (0 = half the L2)")
	control := flag.String("control", "window+pace", "RnR timing control: nocontrol, window, window+pace")
	iters := flag.Int("iters", 100, "iterations speedups are composed to")
	metrics := flag.String("metrics", "", "write cycle-sampled telemetry series (JSONL) to this file")
	traceOut := flag.String("trace-out", "", "write Chrome trace-event JSON (Perfetto-loadable) to this file")
	sampleInt := flag.Uint64("sample-interval", telemetry.DefaultSampleInterval,
		"cycles between telemetry samples")
	auditOn := flag.Bool("audit", false,
		"attach the correctness auditor: sweep every component's invariants periodically and fail the run on any violation")
	auditInt := flag.Uint64("audit-interval", audit.DefaultInterval, "cycles between invariant sweeps (with -audit)")
	obsOn := flag.Bool("obs", false,
		"attach the prefetch-lifecycle flight recorder: per-outcome attribution, latency histograms and RnR divergence scores (printed, and exported with -json)")
	jsonOut := flag.String("json", "",
		"write each run's rnrsim.v1 result export (JSON) to this file; with several prefetchers the name is inserted before the extension")
	cpuprofile := flag.String("cpuprofile", "", "write a runtime/pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a runtime/pprof heap profile to this file")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0),
		"prefetcher simulations run in parallel (1 = stream rows as they finish)")
	flag.Parse()

	if err := validateFlags(flagValues{
		Prefetchers: *pfs,
		Cores:       *cores,
		CoRun:       *corun,
		CrossCore:   *crosscore,
		Jobs:        *jobs,
	}); err != nil {
		fatal("%v", err)
	}

	stopProf, err := telemetry.StartCPUProfile(*cpuprofile)
	if err != nil {
		fatal("%v", err)
	}
	defer stopProf()

	sc, ok := apps.ParseScale(*scale)
	if !ok {
		fatal("unknown scale %q", *scale)
	}
	var ctl rnr.TimingControl
	switch *control {
	case "nocontrol":
		ctl = rnr.NoControl
	case "window":
		ctl = rnr.WindowControl
	case "window+pace":
		ctl = rnr.WindowPaceControl
	default:
		fatal("unknown control %q", *control)
	}

	var app *apps.App
	switch {
	case *corun != "":
		var jobSpecs []multicore.JobSpec
		for _, field := range strings.Split(*corun, ",") {
			j, err := multicore.ParseJob(strings.TrimSpace(field))
			if err != nil {
				fatal("%v", err)
			}
			jobSpecs = append(jobSpecs, j)
		}
		app, err = multicore.Compose(sc, jobSpecs)
	case *cores > 0:
		app, err = apps.BuildCores(*workload, *input, sc, *cores)
	default:
		app, err = apps.Build(*workload, *input, sc)
	}
	if err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(os.Stderr, "built %s/%s: %d cores, %d records, %d instructions\n",
		app.Name, app.Input, app.Cores, app.Records(), app.Instructions())

	mk := func(pf sim.PrefetcherKind) sim.Config {
		// Pair the machine with the input scale: the miniature machine
		// keeps the tiny test inputs DRAM-bound, like the scaled machine
		// does for the bench inputs.
		cfg := sim.Scaled()
		if sc == apps.ScaleTest {
			cfg = sim.Test()
		}
		cfg.Prefetcher = pf
		cfg.RnRWindow = *window
		cfg.RnRControl = ctl
		if *corun != "" {
			// One core per composed program, interacting only through the
			// coherent shared LLC.
			cfg = bench.CoRunMachine(cfg, app.Cores, pf, *crosscore)
		} else {
			if *cores > 0 {
				cfg.Cores = *cores
			}
			cfg.CrossCore = *crosscore
		}
		if *auditOn {
			cfg.Audit = &audit.Config{Interval: *auditInt}
		}
		if *obsOn {
			cfg.Obs = &obs.Config{}
		}
		return cfg
	}
	base, err := sim.Run(mk(sim.PFNone), app)
	if err != nil {
		fatal("baseline: %v", err)
	}
	fmt.Printf("%-14s %10s %8s %8s %8s %9s %9s\n",
		"prefetcher", "cycles", "IPC", "L2MPKI", "speedup", "coverage", "accuracy")
	fmt.Printf("%-14s %10d %8.3f %8.1f %8s %9s %9s\n",
		"baseline", base.Cycles, base.IPC(), base.L2MPKI(), "1.00", "-", "-")

	var selected []sim.PrefetcherKind
	for _, name := range strings.Split(*pfs, ",") {
		pf := sim.PrefetcherKind(strings.TrimSpace(name))
		if pf == sim.PFNone || pf == "" {
			continue
		}
		selected = append(selected, pf)
	}
	multi := len(selected) > 1
	type outcome struct {
		res *sim.Result
		rec *telemetry.Recorder
		err error
	}
	results := make([]outcome, len(selected))

	// simulate runs the i-th prefetcher; each run gets its own Config and
	// Recorder, and the shared App is read-only, so runs are independent.
	simulate := func(i int) {
		cfg := mk(selected[i])
		var rec *telemetry.Recorder
		if *metrics != "" || *traceOut != "" {
			rec = telemetry.New(telemetry.Config{SampleInterval: *sampleInt})
			cfg.Telemetry = rec
		}
		r, err := sim.Run(cfg, app)
		results[i] = outcome{res: r, rec: rec, err: err}
	}

	// report prints the i-th row (and writes its telemetry files) in
	// command-line order, so -j N output is identical to -j 1.
	report := func(i int) {
		pf, o := selected[i], results[i]
		if o.err != nil {
			fatal("%s: %v", pf, o.err)
		}
		r := o.res
		fmt.Printf("%-14s %10d %8.3f %8.1f %8.2f %9.2f %9.2f\n",
			pf, r.Cycles, r.IPC(), r.L2MPKI(),
			r.ComposedSpeedup(base, *iters), r.Coverage(base), r.Accuracy())
		if pf == sim.PFRnR || pf == sim.PFRnRCombined {
			tl := r.TimelinessBreakdown()
			fmt.Printf("  rnr: recorded %d entries in %d windows, metadata %.1f KB (%.1f%% of input), "+
				"record overhead %.1f%%, timeliness on-time %.0f%% early %.0f%% late %.0f%% out-of-window %.0f%%\n",
				r.RnR.RecordedEntries, r.RnR.RecordedWindows,
				float64(r.RnR.MetadataBytes())/1024, r.StorageOverheadPct(),
				r.RecordOverheadPct(base),
				tl.OnTime*100, tl.Early*100, tl.Late*100, tl.OutOfWindow*100)
		}
		if r.Coherence != nil {
			fmt.Printf("  coherence: fills %d upgrades %d invalidations %d downgrades %d evicts %d\n",
				r.Coherence.Fills, r.Coherence.Upgrades, r.Coherence.Invalidations,
				r.Coherence.Downgrades, r.Coherence.Evicts)
		}
		if r.CrossCore != nil {
			fmt.Printf("  crosscore: trained %d lookups %d issued %d dropped %d\n",
				r.CrossCore.Trained, r.CrossCore.Lookups, r.CrossCore.Issued, r.CrossCore.Dropped)
		}
		if r.Obs != nil {
			lc := r.Obs.Lifecycle
			fmt.Printf("  obs: issued %d | timely %d late %d unused-evicted %d unused-at-end %d redundant %d | late stall shaved %d cycles\n",
				lc.Issued, lc.Timely, lc.Late, lc.UnusedEvicted, lc.UnusedAtEnd,
				lc.Redundant, lc.LateStallShaved)
			if d := lc.Divergence; d != nil {
				fmt.Printf("  obs: divergence mean %.3f max %.3f over %d replay windows\n",
					d.MeanScore, d.MaxScore, d.WindowsScored)
			}
		}
		if *jsonOut != "" {
			if err := writeResultJSON(perRunPath(*jsonOut, string(pf), multi), r); err != nil {
				fatal("%v", err)
			}
		}
		if o.rec != nil {
			if err := o.rec.WriteMetricsFile(perRunPath(*metrics, string(pf), multi)); err != nil {
				fatal("%v", err)
			}
			if err := o.rec.WriteTraceFile(perRunPath(*traceOut, string(pf), multi)); err != nil {
				fatal("%v", err)
			}
		}
	}

	if *jobs <= 1 || len(selected) <= 1 {
		for i := range selected {
			simulate(i)
			report(i)
		}
	} else {
		workers := *jobs
		if workers > len(selected) {
			workers = len(selected)
		}
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					simulate(i)
				}
			}()
		}
		for i := range selected {
			next <- i
		}
		close(next)
		wg.Wait()
		for i := range selected {
			report(i)
		}
	}

	if err := telemetry.WriteHeapProfile(*memprofile); err != nil {
		fatal("%v", err)
	}
}

// flagValues carries the command-line values cross-flag validation
// needs, so the rules are testable without running main.
type flagValues struct {
	Prefetchers string
	Cores       int
	CoRun       string
	CrossCore   bool
	Jobs        int
}

// validateFlags rejects flag misuse at parse time, naming the offending
// flag, instead of silently ignoring a value or failing deep inside
// sim.Config validation with an internal config name. The two shapes it
// exists for: a negative -cores used to be silently treated as "machine
// default" (the build switch only tested > 0), and -crosscore without a
// -corun job list only made sense by accident (the cross-core prefetcher
// trains on multiple cores' LLC miss streams; with one SPMD program the
// serving layer rejects the same combination at submission time). An
// unknown -prefetchers name is rejected here too, before the no-prefetch
// baseline spends a whole simulation ahead of sim.New's check.
func validateFlags(v flagValues) error {
	for _, name := range strings.Split(v.Prefetchers, ",") {
		pf := sim.PrefetcherKind(strings.TrimSpace(name))
		if pf != "" && !slices.Contains(sim.AllPrefetchers, pf) {
			return fmt.Errorf("-prefetchers: unknown prefetcher %q (have %s)", pf, allPrefetchers())
		}
	}
	if v.Cores < 0 {
		return fmt.Errorf("-cores must be positive (got %d); omit it for the machine default", v.Cores)
	}
	if v.CoRun != "" && v.Cores > 0 {
		return fmt.Errorf("-cores conflicts with -corun (the co-run runs one core per job)")
	}
	if v.CrossCore && v.CoRun == "" && v.Cores < 2 {
		return fmt.Errorf("-crosscore needs multiple cores: give a -corun job list or -cores >= 2")
	}
	if v.Jobs < 1 {
		return fmt.Errorf("-j must be >= 1 (got %d)", v.Jobs)
	}
	return nil
}

// allPrefetchers lists sim.AllPrefetchers in -prefetchers syntax.
func allPrefetchers() string {
	names := make([]string, len(sim.AllPrefetchers))
	for i, pf := range sim.AllPrefetchers {
		names[i] = string(pf)
	}
	return strings.Join(names, ",")
}

// writeResultJSON writes one run's stamped export.
func writeResultJSON(path string, r *sim.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perRunPath returns base unchanged for a single instrumented run, and
// inserts the prefetcher name before the extension ("out.rnr.jsonl")
// when several runs share one flag value.
func perRunPath(base, pf string, multi bool) string {
	if base == "" || !multi {
		return base
	}
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "." + pf + ext
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rnrsim: "+format+"\n", args...)
	os.Exit(1)
}
