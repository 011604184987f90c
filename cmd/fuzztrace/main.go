// Command fuzztrace drives the seeded trace fuzzer (internal/audit)
// against the simulator with the invariant checker enabled: randomized
// marker/load interleavings, including pathological shapes real
// workloads never emit, run on the miniature test machine under every
// selected prefetcher, every K cycles swept for invariant violations.
//
// Usage:
//
//	fuzztrace                         # 64 seeds from 1, pathological on
//	fuzztrace -seeds 512 -start 1000  # a bigger sweep
//	fuzztrace -fuzz-seed 42 -v        # reproduce one seed, print stats
//	fuzztrace -prefetchers rnr -pathological=false
//	fuzztrace -force-cycle-stepped    # same sweep on the legacy engine
//
// Every failure prints the seed, the prefetcher, and each retained
// violation (cycle, component, law), so a red sweep reproduces with
// -fuzz-seed alone. The exit status is the number of failing runs
// (capped at 125).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rnrsim/internal/audit"
	"rnrsim/internal/obs"
	"rnrsim/internal/sim"
)

func main() {
	seeds := flag.Int("seeds", 64, "number of consecutive seeds to sweep")
	start := flag.Int64("start", 1, "first seed of the sweep")
	one := flag.Int64("fuzz-seed", 0, "run exactly this seed (overrides -seeds/-start)")
	pfs := flag.String("prefetchers", "none,nextline,stream,rnr,rnr-combined",
		"comma-separated prefetchers to fuzz under")
	patho := flag.Bool("pathological", true,
		"emit pathological marker shapes (nested/unmatched markers, zero-length iterations, huge IterEnd aux)")
	cores := flag.Int("cores", 2, "SPMD cores per fuzzed workload")
	iters := flag.Int("iterations", 4, "kernel iterations per fuzzed workload")
	loads := flag.Int("loads", 96, "approximate loads per iteration per core")
	seqCap := flag.Uint64("seq-cap", 64, "sequence-table capacity in entries (small forces mid-window overflow)")
	interval := flag.Uint64("audit-interval", 64, "cycles between invariant sweeps")
	maxCycles := flag.Uint64("max-cycles", 5_000_000, "abort a wedged interleaving after this many cycles")
	forceStepped := flag.Bool("force-cycle-stepped", false,
		"drive the sweep with the legacy cycle-stepped engine instead of the event-driven scheduler (differential debugging: a hash that changes with this flag is a wakeup bug)")
	coherent := flag.Bool("coherence", false,
		"attach the MESI-lite coherence directory so its invariants (single owner, sharer masks, no stale hits) are fuzzed too — the fuzzer's shared store targets are the directory's worst case")
	llcBanks := flag.Int("llc-banks", 0, "split the shared LLC into this many banks (power of two; 0 = monolithic)")
	crossCore := flag.Bool("crosscore", false,
		"attach the cooperative cross-core LLC prefetcher so its table state is folded into the fuzzed hash")
	obsOn := flag.Bool("obs", false,
		"attach the prefetch-lifecycle flight recorder so its conservation law is fuzzed alongside the architectural invariants")
	verbose := flag.Bool("v", false, "print one line per run instead of a final summary")
	flag.Parse()

	var kinds []sim.PrefetcherKind
	for _, name := range strings.Split(*pfs, ",") {
		if name = strings.TrimSpace(name); name != "" {
			kinds = append(kinds, sim.PrefetcherKind(name))
		}
	}

	first, n := *start, *seeds
	if *one != 0 {
		first, n = *one, 1
	}

	runs, failures := 0, 0
	for s := int64(0); s < int64(n); s++ {
		seed := first + s
		fc := audit.FuzzConfig{
			Seed: seed, Cores: *cores, Iterations: *iters,
			Loads: *loads, SeqCap: *seqCap, Pathological: *patho,
		}.WithDefaults()
		app := audit.Fuzz(fc)
		for _, pf := range kinds {
			runs++
			cfg := sim.Test()
			cfg.Cores = fc.Cores
			cfg.Prefetcher = pf
			cfg.Audit = &audit.Config{Interval: *interval}
			cfg.MaxCycles = *maxCycles
			cfg.ForceCycleStepped = *forceStepped
			cfg.Coherence = *coherent
			cfg.LLCBanks = *llcBanks
			cfg.CrossCore = *crossCore
			if *obsOn {
				cfg.Obs = &obs.Config{}
			}
			sys, err := sim.New(cfg, app)
			if err != nil {
				fmt.Fprintf(os.Stderr, "seed %d %s: %v\n", seed, pf, err)
				failures++
				continue
			}
			r, err := sys.RunAll()
			if err != nil {
				failures++
				fmt.Fprintf(os.Stderr, "FAIL seed %d %s: %v\n", seed, pf, err)
				for _, v := range sys.Audit().Violations() {
					fmt.Fprintf(os.Stderr, "  %s\n", v)
				}
				if d := sys.Audit().Dropped(); d > 0 {
					fmt.Fprintf(os.Stderr, "  (+%d violations dropped)\n", d)
				}
				continue
			}
			if *verbose {
				fmt.Printf("ok   seed %d %-12s %8d cycles  %6d sweeps  hash %016x\n",
					seed, pf, r.Cycles, sys.Audit().Checks(), r.StateHash)
			}
		}
	}

	fmt.Printf("fuzztrace: %d runs (%d seeds x %d prefetchers), %d failures\n",
		runs, n, len(kinds), failures)
	if failures > 125 {
		failures = 125 // keep the exit status meaningful
	}
	os.Exit(failures)
}
