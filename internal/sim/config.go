// Package sim assembles the full simulated machine — cores, private
// L1/L2 caches, shared LLC, DRAM, prefetchers and the RnR engines — runs a
// workload's traces through it and collects the statistics the paper's
// evaluation reports.
package sim

import (
	"fmt"
	"slices"

	"rnrsim/internal/audit"
	"rnrsim/internal/cache"
	"rnrsim/internal/coherence"
	"rnrsim/internal/cpu"
	"rnrsim/internal/dram"
	"rnrsim/internal/obs"
	"rnrsim/internal/rnr"
	"rnrsim/internal/telemetry"
)

// PrefetcherKind names the prefetcher configuration under test.
type PrefetcherKind string

// The evaluated configurations (§VII): the paper's four baselines, the
// extended baselines (GHB, MISB, IMP from Fig. 1/related work), RnR alone,
// and RnR-Combined (RnR for the target structure + next-line for the
// rest, §V-D).
const (
	PFNone        PrefetcherKind = "none"
	PFNextLine    PrefetcherKind = "nextline"
	PFStream      PrefetcherKind = "stream"
	PFGHB         PrefetcherKind = "ghb"
	PFMISB        PrefetcherKind = "misb"
	PFBingo       PrefetcherKind = "bingo"
	PFSteMS       PrefetcherKind = "stems"
	PFDroplet     PrefetcherKind = "droplet"
	PFIMP         PrefetcherKind = "imp"
	PFBestOffset  PrefetcherKind = "bestoffset"
	PFDomino      PrefetcherKind = "domino"
	PFRnR         PrefetcherKind = "rnr"
	PFRnRCombined PrefetcherKind = "rnr-combined"
)

// AllPrefetchers lists every configuration the harness can run.
var AllPrefetchers = []PrefetcherKind{
	PFNone, PFNextLine, PFStream, PFGHB, PFMISB, PFBingo, PFSteMS,
	PFDroplet, PFIMP, PFBestOffset, PFDomino, PFRnR, PFRnRCombined,
}

// Config describes one simulated machine configuration.
type Config struct {
	Name  string
	Cores int

	CPU  cpu.Config
	L1   cache.Config
	L2   cache.Config
	LLC  cache.Config
	DRAM dram.Config

	Prefetcher PrefetcherKind
	RnRControl rnr.TimingControl
	RnRWindow  uint64 // 0 = half the L2 in lines (the paper's default)
	// RnRRecordAll switches the record engine to the naive
	// every-access recording §III rejects (ablation).
	RnRRecordAll bool
	// RnRPrefetchToLLC redirects replay prefetches to the shared LLC
	// instead of the private L2 (§III's destination choice, ablation).
	RnRPrefetchToLLC bool

	// IdealLLC replaces the LLC with an infinite cache (the "ideal" bar
	// of Fig. 6: only cold misses reach memory).
	IdealLLC bool

	// Coherence attaches the MESI-lite directory (internal/coherence)
	// in front of the shared LLC: stores invalidate remote private
	// copies, remote fills downgrade Modified lines. With one core the
	// directory can never invalidate anything, so a 1-core coherent
	// machine is state-hash-identical to an uncoherent one.
	Coherence bool

	// LLCBanks splits the shared LLC into this many equal banks (power
	// of two; 0 or 1 keeps the single monolithic LLC), each bank an
	// independently scheduled cache covering the lines whose low
	// line-address bits select it.
	LLCBanks int

	// CrossCore attaches the Pickle-style cooperative LLC prefetcher
	// (prefetch.CrossCore): one shared correlation table trained on the
	// per-core LLC demand-miss streams, issuing prefetches into the LLC
	// on behalf of the predicted consumer. Requires a real LLC.
	CrossCore bool

	// CtxSwitch enables periodic OS context switches (§IV-C): cache
	// pollution plus prefetcher reset for conventional designs, pause /
	// save / restore / resume for RnR.
	CtxSwitch CtxSwitchConfig

	// MaxCycles aborts runaway simulations; 0 = a generous default.
	MaxCycles uint64

	// Audit, when non-nil, attaches the correctness layer: an invariant
	// checker sweeps every component's conservation laws every
	// Audit.EffectiveInterval() cycles (plus once after the run drains)
	// and any violation fails the run with the cycle, component and law.
	// Nil costs one pointer compare per Tick, like Telemetry.
	Audit *audit.Config

	// Obs, when non-nil, attaches the prefetch-lifecycle flight recorder
	// (internal/obs): every prefetch issued into the instrumented level
	// gets a lifecycle record attributed to exactly one outcome, latency
	// structure lands in exponential histograms, and RnR engines get a
	// divergence probe scoring the observed replay-time miss stream
	// against the recording. Purely observational — state hashes are
	// identical with or without it — and nil costs one pointer compare
	// per cache event.
	Obs *obs.Config

	// Telemetry, when non-nil, attaches the observability layer: every
	// component registers its probes into the recorder at construction,
	// the system samples the series every Telemetry.SampleInterval()
	// cycles and emits trace spans (iterations, RnR state machine, DRAM
	// drains, context switches). Nil costs one pointer compare per Tick.
	Telemetry *telemetry.Recorder

	// OnIteration, if set, is called each time the SPMD iteration
	// barrier opens, with the iteration index and the cycle it opened
	// at. The serving layer (internal/serve) uses it as the source of
	// live per-phase progress ticks. It runs on the simulation
	// goroutine: it must be cheap and must not block.
	OnIteration func(iter int, cycle uint64)

	// ForceCycleStepped disables the event-driven scheduler and runs the
	// legacy one-Tick-per-cycle loop: the same cycle body under the
	// always-tick policy, consulting no wakeups. Results are
	// byte-identical either way (the differential tests prove it); this
	// exists as the reference engine for those tests and as an escape
	// hatch while debugging wakeup computations.
	ForceCycleStepped bool
}

// Baseline returns the paper's Table II machine: 4-core 4 GHz OoO with
// 64 KB L1s, 256 KB L2s, 8 MB LLC and one DDR4-2400 channel.
func Baseline() Config {
	return Config{
		Name:  "tableII",
		Cores: 4,
		CPU:   cpu.Default(),
		L1: cache.Config{
			Name: "L1D", SizeBytes: 64 * 1024, Ways: 8, Latency: 4,
			MSHRs: 8, ReadQ: 32, PrefQ: 8, WriteQ: 32, Bandwidth: 2,
		},
		L2: cache.Config{
			Name: "L2", SizeBytes: 256 * 1024, Ways: 8, Latency: 12,
			MSHRs: 16, ReadQ: 32, PrefQ: 32, WriteQ: 32, Bandwidth: 1,
			PrefBandwidth: 2,
		},
		LLC: cache.Config{
			Name: "LLC", SizeBytes: 8 * 1024 * 1024, Ways: 16, Latency: 42,
			MSHRs: 128, ReadQ: 64, PrefQ: 64, WriteQ: 64, Bandwidth: 4,
		},
		DRAM:       dram.Default(),
		Prefetcher: PFNone,
		RnRControl: rnr.WindowPaceControl,
	}
}

// Scaled returns the Table II machine with capacities scaled down by 16x
// to pair with the scaled inputs (see apps.Scale): miss ratios land in the
// same regimes as the paper's full-size runs, and the whole suite runs on
// a laptop. Latencies and queue depths are unchanged.
func Scaled() Config {
	c := Baseline()
	c.Name = "tableII/32"
	c.L1.SizeBytes = 4 * 1024
	c.L2.SizeBytes = 16 * 1024
	// The LLC scales harder than the private levels so that the target
	// structures miss it, as the paper's full-size inputs miss the 8 MB
	// LLC: the baseline's irregular accesses must pay DRAM latency or
	// there is nothing for any prefetcher to win.
	c.LLC.SizeBytes = 64 * 1024
	// More L2 miss concurrency: with scaled capacities the prefetch
	// streams need the extra MSHRs to cover the same latency window the
	// paper's full-size configuration covers.
	c.L2.MSHRs = 32
	// Extra channels keep the scaled baseline *latency-bound* (MLP-limited)
	// rather than bus-bound, matching the regime the paper's speedups
	// imply: a prefetcher can only win when the bus has headroom.
	c.DRAM.Channels = 4
	c.DRAM.MaxInFlight = 24
	return c
}

// Test returns a miniature machine paired with the ScaleTest inputs:
// capacities shrink below the test working sets so the workloads stay
// DRAM-bound, the regime the paper evaluates in. Useful for unit tests
// and quick examples.
func Test() Config {
	c := Scaled()
	c.Name = "test"
	c.L1.SizeBytes = 1024
	c.L2.SizeBytes = 4 * 1024
	c.LLC.SizeBytes = 8 * 1024
	return c
}

// DefaultWindowLines returns the RnR default window: half the L2 in cache
// lines, for double buffering (§IV-B).
func (c Config) DefaultWindowLines() uint64 {
	return c.L2.SizeBytes / 64 / 2
}

// WithPrefetcher returns a copy configured for the given prefetcher.
func (c Config) WithPrefetcher(p PrefetcherKind) Config {
	c.Prefetcher = p
	c.Name = fmt.Sprintf("%s+%s", c.Name, p)
	return c
}

func (c Config) validate() error {
	if c.Cores < 1 {
		return fmt.Errorf("sim: config %q has %d cores", c.Name, c.Cores)
	}
	if !slices.Contains(AllPrefetchers, c.Prefetcher) {
		return fmt.Errorf("sim: unknown prefetcher %q", c.Prefetcher)
	}
	if c.Coherence && c.Cores > coherence.MaxCores {
		return fmt.Errorf("sim: config %q has %d cores, coherence supports at most %d",
			c.Name, c.Cores, coherence.MaxCores)
	}
	if b := c.LLCBanks; b > 1 {
		if b&(b-1) != 0 {
			return fmt.Errorf("sim: config %q has %d LLC banks, want a power of two", c.Name, b)
		}
		if c.IdealLLC {
			return fmt.Errorf("sim: config %q banks the ideal LLC", c.Name)
		}
	} else if b < 0 {
		return fmt.Errorf("sim: config %q has %d LLC banks", c.Name, b)
	}
	if c.CrossCore && c.IdealLLC {
		return fmt.Errorf("sim: config %q attaches the cross-core prefetcher to the ideal LLC", c.Name)
	}
	return nil
}
