package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"rnrsim/internal/apps"
	"rnrsim/internal/mem"
	"rnrsim/internal/rnr"
	"rnrsim/internal/trace"
)

// The seeded trace fuzzer. It builds an apps.App whose per-core traces
// are randomized marker/load interleavings, including pathological
// shapes the real workloads never emit:
//
//   - nested and unmatched region markers (double RecordStart, Replay
//     with no prior record, Resume with no Pause, duplicate IterEnd),
//   - zero-length iterations (IterBegin immediately followed by
//     IterEnd),
//   - sequence-table overflow mid-window (tiny SeqCap against long
//     recorded iterations),
//   - occasionally a huge IterEnd Aux, stressing the simulator's
//     per-iteration bookkeeping bounds.
//
// Everything is derived from fuzzConfig.Seed, so a violation found by
// the fuzz harness reproduces from the seed alone.

// fuzzConfig parameterises one fuzzed workload. The zero value is not
// useful; call withDefaults or fill every field.
type fuzzConfig struct {
	// Seed selects the random interleaving. Same seed, same app.
	Seed int64
	// Cores is the number of SPMD workers (one trace each).
	Cores int
	// Iterations is the kernel iteration count per core
	// (1 warm-up + 1 record + rest replays, like the real apps).
	Iterations int
	// Loads is the approximate number of loads per iteration per core.
	Loads int
	// SeqCap is the sequence-table capacity in entries. Keep it small
	// to force seq-table overflow mid-window.
	SeqCap uint64
	// Pathological enables the marker abuse described above. When
	// false the fuzzer emits only well-formed Algorithm-1-shaped
	// traces with randomized access patterns.
	Pathological bool
}

// withDefaults fills zero fields with the harness defaults: 2 cores,
// 4 iterations, 96 loads, a 64-entry sequence table.
func (c fuzzConfig) withDefaults() fuzzConfig {
	if c.Cores == 0 {
		c.Cores = 2
	}
	if c.Iterations == 0 {
		c.Iterations = 4
	}
	if c.Loads == 0 {
		c.Loads = 96
	}
	if c.SeqCap == 0 {
		c.SeqCap = 64
	}
	return c
}

// fuzzApp builds the fuzzed workload for the given configuration.
func fuzzApp(cfg fuzzConfig) *apps.App {
	cfg = cfg.withDefaults()
	al := mem.NewAllocator(0x2000_0000)
	// One shared irregularly-accessed target, like the apps' vertex
	// arrays, plus per-core RnR metadata tables.
	target := al.AllocPage("fuzz.target", 1<<16)
	traces := make([]trace.Trace, cfg.Cores)
	for core := 0; core < cfg.Cores; core++ {
		seq := al.AllocPage("rnr.seq", cfg.SeqCap*rnr.SeqEntryBytes)
		div := al.AllocPage("rnr.div", (cfg.SeqCap/4+8)*rnr.DivEntryBytes)
		rng := rand.New(rand.NewSource(cfg.Seed + int64(core)*0x9e37))
		traces[core] = trace.Trace{fuzzTrace(rng, cfg, core, target, seq, div)}
	}
	return &apps.App{
		Name:       "fuzz",
		Input:      fmt.Sprintf("seed%d", cfg.Seed),
		Cores:      cfg.Cores,
		Traces:     traces,
		InputBytes: target.Size,
		Targets:    []mem.Region{target},
		Iterations: cfg.Iterations,
	}
}

// fuzzTrace emits one core's trace.
func fuzzTrace(rng *rand.Rand, cfg fuzzConfig, core int, target, seq, div mem.Region) []trace.Record {
	b := trace.NewBuilder(cfg.Iterations * (cfg.Loads + 8))
	pcBase := uint64(0x7000 + core*0x100)

	// Window sizes deliberately include tiny and zero (zero leaves the
	// engine's default in place).
	windows := []uint64{0, 2, 4, 8, 16}
	b.RnRInit(seq, div, windows[rng.Intn(len(windows))])
	b.AddrBaseSet(0, target.Base, target.Size)
	b.AddrBaseEnable(0)

	patho := func(p float64) bool { return cfg.Pathological && rng.Float64() < p }

	for it := 0; it < cfg.Iterations; it++ {
		// Prefetch-state transition ahead of the iteration, as
		// Algorithm 1 places it: record on iteration 1, replay after.
		switch {
		case it == 1:
			b.RecordStart()
			if patho(0.15) {
				b.RecordStart() // nested record
			}
		case it >= 2:
			b.Replay()
			if patho(0.1) {
				b.Replay() // duplicate replay
			}
		case it == 0 && patho(0.1):
			b.Replay() // replay with nothing recorded
		}

		b.IterBegin(it)
		if patho(0.1) {
			b.IterBegin(it) // nested iteration begin
		}

		if patho(0.12) {
			// Zero-length iteration: close immediately, no loads.
			b.IterEnd(it)
			continue
		}

		loads := cfg.Loads/2 + rng.Intn(cfg.Loads)
		addr := target.Base + mem.Addr(rng.Int63n(int64(target.Size))&^7)
		for l := 0; l < loads; l++ {
			b.Exec(uint64(1 + rng.Intn(12)))
			switch rng.Intn(4) {
			case 0: // sequential run
				addr += 8
			case 1: // strided
				addr += mem.Addr(8 * (1 + rng.Intn(16)))
			default: // random jump (the misses RnR records)
				addr = target.Base + mem.Addr(rng.Int63n(int64(target.Size))&^7)
			}
			if addr >= target.End() {
				addr = target.Base + (addr-target.End())%mem.Addr(target.Size)
			}
			b.Load(pcBase+uint64(rng.Intn(4)), addr, 8, int32(target.ID))
			if rng.Intn(8) == 0 {
				b.Store(pcBase+4, addr, 8, int32(target.ID))
			}
			if patho(0.01) {
				b.Mark(trace.MarkPause, 0, 0, 0)
				if !patho(0.3) { // sometimes leave it paused
					b.Mark(trace.MarkResume, 0, 0, 0)
				}
			}
			if patho(0.005) {
				b.Mark(trace.MarkResume, 0, 0, 0) // resume with no pause
			}
		}

		if patho(0.05) {
			// Unmatched/duplicated end, occasionally with a huge Aux
			// that stresses iteration-table bounds.
			if patho(0.5) {
				b.Mark(trace.MarkIterEnd, 0, 0, int32(1<<20+rng.Intn(1<<10)))
			} else {
				b.IterEnd(it)
			}
		}
		b.IterEnd(it)
	}

	if patho(0.2) {
		b.PrefetchEnd()
		b.PrefetchEnd() // double end
	} else {
		b.PrefetchEnd()
	}
	b.RnREnd()
	return b.Records()
}

func TestFuzzDeterministicAndShaped(t *testing.T) {
	cfg := fuzzConfig{Seed: 7, Pathological: true}
	a1 := fuzzApp(cfg)
	a2 := fuzzApp(cfg)
	if a1.Records() == 0 {
		t.Fatal("fuzzed app is empty")
	}
	if a1.Cores != 2 || len(a1.Traces) != 2 {
		t.Fatalf("defaults: cores=%d traces=%d", a1.Cores, len(a1.Traces))
	}
	for c := range a1.Traces {
		r1, r2 := a1.Traces[c].Records(), a2.Traces[c].Records()
		if len(r1) != len(r2) {
			t.Fatalf("core %d: nondeterministic length %d vs %d", c, len(r1), len(r2))
		}
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("core %d record %d differs between builds", c, i)
			}
		}
	}
	if fuzzApp(fuzzConfig{Seed: 8, Pathological: true}).Records() == a1.Records() {
		t.Log("seeds 7 and 8 coincidentally same length (allowed, just unlikely)")
	}

	// Loads stay inside the declared target region.
	target := a1.Targets[0]
	for c, tr := range a1.Traces {
		for i, r := range tr.Records() {
			if r.Kind == 1 || r.Kind == 2 { // load/store
				if !target.Contains(r.Addr) {
					t.Fatalf("core %d rec %d: %#x outside target %v", c, i, uint64(r.Addr), target)
				}
			}
		}
	}
}
