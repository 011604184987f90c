// Command experiments regenerates the paper's evaluation: every table and
// figure of §VI-§VII, as text tables on stdout and optionally as a
// markdown report.
//
// Usage:
//
//	experiments [-scale test|bench|large] [-only fig6,fig8] [-md out.md]
//	experiments -j 8                  # prewarm runs over 8 workers
//	experiments -only fig6 -json results.json
//	experiments -only fig10 -metrics series.jsonl -trace-out trace.json
//
// Expect the full bench-scale suite to take tens of minutes on a laptop:
// it simulates every workload x input x prefetcher combination. -j N
// plans the selected experiments' runs up front (a dry run of their
// runners) and executes them over N workers before the (serial,
// all-cache-hit) table assembly; the printed tables are byte-identical
// to -j 1 because the plan only changes when runs happen, never which
// results feed which cells.
//
// -json writes every simulated run's counters and derived metrics as a
// machine-readable array next to the text tables. -metrics/-trace-out
// instrument every fresh run and write one file per run, with the run
// key inserted before the extension (series.pagerank_urand_rnr.jsonl);
// prefer combining them with -only to bound the file count.
// -cpuprofile/-memprofile profile the simulator itself via runtime/pprof.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"rnrsim/internal/apps"
	"rnrsim/internal/audit"
	"rnrsim/internal/bench"
	"rnrsim/internal/telemetry"
)

func main() {
	scale := flag.String("scale", "bench", "input scale: test, bench or large")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	md := flag.String("md", "", "also write a markdown report to this file")
	iters := flag.Int("iters", 100, "iterations speedups are composed to")
	jsonOut := flag.String("json", "", "write all run results as JSON to this file")
	metrics := flag.String("metrics", "", "per-run telemetry series (JSONL); run key inserted before the extension")
	traceOut := flag.String("trace-out", "", "per-run Chrome trace JSON; run key inserted before the extension")
	sampleInt := flag.Uint64("sample-interval", telemetry.DefaultSampleInterval,
		"cycles between telemetry samples")
	auditOn := flag.Bool("audit", false,
		"attach the correctness auditor to every run: periodic invariant sweeps, any violation fails the run")
	auditInt := flag.Uint64("audit-interval", audit.DefaultInterval, "cycles between invariant sweeps (with -audit)")
	cpuprofile := flag.String("cpuprofile", "", "write a runtime/pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a runtime/pprof heap profile to this file")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0),
		"simulations run in parallel (1 = fully serial, identical to the pre-planner path)")
	flag.Parse()

	stopProf, err := telemetry.StartCPUProfile(*cpuprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	defer stopProf()

	sc, ok := apps.ParseScale(*scale)
	if !ok {
		fmt.Fprintf(os.Stderr, "experiments: unknown scale %q\n", *scale)
		os.Exit(2)
	}

	suite := bench.NewSuite(sc)
	suite.ComposeIters = *iters
	suite.Parallelism = *jobs
	if *auditOn {
		suite.Config.Audit = &audit.Config{Interval: *auditInt}
	}
	start := time.Now()

	// Progress is invoked from worker goroutines once -j > 1; serialize
	// the writes and count completions against the planned total so the
	// interleaved output stays legible ("[ 12/57] ... 1.3s").
	var (
		progMu    sync.Mutex
		runsDone  int
		runsTotal int // set once the plan is known; grows if exceeded
	)
	suite.Progress = func(key string) {
		progMu.Lock()
		fmt.Fprintf(os.Stderr, "[%7.1fs] simulating %s\n", time.Since(start).Seconds(), key)
		progMu.Unlock()
	}
	suite.OnRunDone = func(key string, elapsed time.Duration) {
		progMu.Lock()
		runsDone++
		if runsDone > runsTotal {
			runsTotal = runsDone
		}
		fmt.Fprintf(os.Stderr, "[%3d/%3d] done %-45s %6.1fs\n",
			runsDone, runsTotal, key, elapsed.Seconds())
		progMu.Unlock()
	}
	if *metrics != "" || *traceOut != "" {
		suite.Instrument = func(string) *telemetry.Recorder {
			return telemetry.New(telemetry.Config{SampleInterval: *sampleInt})
		}
		suite.OnInstrumented = func(key string, rec *telemetry.Recorder) {
			if err := rec.WriteMetricsFile(keyedPath(*metrics, key)); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			}
			if err := rec.WriteTraceFile(keyedPath(*traceOut, key)); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			}
		}
	}

	selected := bench.ExperimentIDs
	if *only != "" {
		selected = nil
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if _, ok := suite.Runner(id); !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (have %s)\n",
					id, strings.Join(bench.ExperimentIDs, ", "))
				os.Exit(2)
			}
			selected = append(selected, id)
		}
	}

	// With -j > 1, enumerate the selected experiments' runs up front and
	// execute them over the worker pool; the serial table assembly below
	// is then entirely memoisation hits. With -j 1 the plan is only used
	// for the progress denominator and the runs happen lazily, exactly as
	// the serial path always did.
	plan := suite.Plan(selected...)
	progMu.Lock()
	runsTotal = len(plan)
	progMu.Unlock()
	if *jobs > 1 && len(plan) > 0 {
		fmt.Fprintf(os.Stderr, "planned %d runs for %d experiment(s), prewarming over %d workers\n",
			len(plan), len(selected), *jobs)
		suite.Prewarm(plan)
	}

	var tables []*bench.Table
	for _, id := range selected {
		run, _ := suite.Runner(id)
		t := run()
		tables = append(tables, t)
		fmt.Println(t.Format())
	}

	if *jsonOut != "" {
		if err := suite.WriteResultsFile(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
	}
	if *md != "" {
		var b strings.Builder
		fmt.Fprintf(&b, "# RnR reproduction — experiment results\n\n")
		fmt.Fprintf(&b, "Scale: %s; speedups composed to %d iterations; generated by cmd/experiments.\n\n", *scale, *iters)
		for _, t := range tables {
			b.WriteString(t.Markdown())
		}
		if err := os.WriteFile(*md, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *md)
	}
	if err := telemetry.WriteHeapProfile(*memprofile); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "done in %.1fs\n", time.Since(start).Seconds())
}

// keyedPath inserts a filesystem-safe form of the run key before the
// path's extension: keyedPath("out.jsonl", "pagerank/urand/rnr/") is
// "out.pagerank_urand_rnr.jsonl". Empty base stays empty (disabled).
func keyedPath(base, key string) string {
	if base == "" {
		return ""
	}
	safe := strings.Trim(strings.NewReplacer("/", "_", " ", "_", "+", "_").Replace(key), "_")
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "." + safe + ext
}
