package apps

import (
	"fmt"
	"testing"

	"rnrsim/internal/mem"
	"rnrsim/internal/trace"
)

// flatAlgorithm1 is the reference emitter: Algorithm 1 with the kernel
// called in every iteration, into one flat builder per core, so each
// iteration's body is written out in full. Each core's trace is one
// segment.
func flatAlgorithm1(cfg Config, seq, div, targets []mem.Region,
	kernel func(b *trace.Builder, core int, cur, next mem.Region)) []trace.Trace {
	builders := make([]*trace.Builder, cfg.Cores)
	for c := range builders {
		b := trace.NewBuilder(1 << 16)
		b.Exec(64)
		b.RnRInit(seq[c], div[c], 0)
		for slot, t := range targets {
			b.AddrBaseSet(slot, t.Base, t.Size)
		}
		b.ROIBegin()
		builders[c] = b
	}
	swap := len(targets) == 2
	cur, next := targets[0], mem.Region{}
	if swap {
		next = targets[1]
	}
	for it := 0; it < cfg.Iterations; it++ {
		for c, b := range builders {
			b.IterBegin(it)
			switch it {
			case 0:
			case 1:
				b.AddrBaseEnable(0)
				b.RecordStart()
			default:
				b.Replay()
			}
			kernel(b, c, cur, next)
			b.IterEnd(it)
			if swap && it < cfg.Iterations-1 {
				b.AddrBaseSet(0, next.Base, next.Size)
				b.AddrBaseSet(1, cur.Base, cur.Size)
				b.AddrBaseEnable(0)
			}
		}
		if swap {
			cur, next = next, cur
		}
	}
	traces := make([]trace.Trace, cfg.Cores)
	for c, b := range builders {
		b.PrefetchEnd()
		b.RnREnd()
		b.ROIEnd()
		traces[c] = trace.Trace{b.Records()}
	}
	return traces
}

// buildWith builds workload w on test-scale input in with emit.
func buildWith(t *testing.T, w, in string, cfg Config, emit emitter) *App {
	t.Helper()
	switch w {
	case "pagerank", "hyperanf":
		g, ok := GraphInput(ScaleTest, in)
		if !ok {
			t.Fatalf("no graph input %q", in)
		}
		if w == "pagerank" {
			return pageRank(g, in, cfg, emit)
		}
		return hyperANF(g, in, cfg, emit)
	case "spcg":
		m, ok := MatrixInput(ScaleTest, in)
		if !ok {
			t.Fatalf("no matrix input %q", in)
		}
		return spCG(m, in, cfg, emit)
	}
	t.Fatalf("unknown workload %q", w)
	return nil
}

// TestLoopFormMatchesFlatEmission checks, for every workload and input
// at test scale, 1, 2 and 4 cores and 3 to 7 iterations, that walking a
// loop-form trace yields exactly the record stream the flat reference
// emits from the same kernel, and that the kernel ran once per distinct
// (core, cur, next): twice per core when the targets ping-pong, once
// with spCG's single target.
func TestLoopFormMatchesFlatEmission(t *testing.T) {
	for _, w := range Workloads {
		for _, in := range InputsFor(w) {
			for _, cores := range []int{1, 2, 4} {
				for iters := 3; iters <= 7; iters++ {
					name := fmt.Sprintf("%s/%s/cores%d/iters%d", w, in, cores, iters)
					var got, want []trace.Trace
					calls := 0
					compare := func(cfg Config, seq, div, targets []mem.Region,
						kernel func(b *trace.Builder, core int, cur, next mem.Region)) []trace.Trace {
						counted := func(b *trace.Builder, core int, cur, next mem.Region) {
							calls++
							kernel(b, core, cur, next)
						}
						got = algorithm1(cfg, seq, div, targets, counted)
						want = flatAlgorithm1(cfg, seq, div, targets, kernel)
						return got
					}
					app := buildWith(t, w, in, Config{Cores: cores, Iterations: iters}, compare)
					if wantCalls := cores * len(app.Targets); calls != wantCalls {
						t.Errorf("%s: kernel ran %d times, want %d", name, calls, wantCalls)
					}
					if len(got) != cores || len(want) != cores {
						t.Fatalf("%s: %d loop-form and %d flat traces for %d cores", name, len(got), len(want), cores)
					}
					for c := range got {
						ref := want[c][0]
						if n := got[c].Len(); n != len(ref) {
							t.Fatalf("%s core %d: %d records, reference %d", name, c, n, len(ref))
						}
						src := got[c].Source()
						for i, wr := range ref {
							r, ok := src.Next()
							if !ok || r != wr {
								t.Fatalf("%s core %d record %d = %v (ok=%v), reference %v", name, c, i, r, ok, wr)
							}
						}
						if r, ok := src.Next(); ok {
							t.Fatalf("%s core %d: walker yields %v past the reference's end", name, c, r)
						}
					}
				}
			}
		}
	}
}

// TestStoredRecordsShareBodies bounds the records each test-scale app
// stores, counting every distinct segment once, against the dynamic
// records its cores execute. Of 5 iterations a graph app stores 2
// bodies and spCG 1, so the ratios sit just above 0.4 and 0.2 (the
// per-iteration markers are stored once per occurrence); storing every
// iteration again reads 1.0. Unlike heap_live_mb, the ratio does not
// depend on the host.
func TestStoredRecordsShareBodies(t *testing.T) {
	for _, w := range Workloads {
		bound := 0.41
		if w == "spcg" {
			bound = 0.21
		}
		for _, in := range InputsFor(w) {
			app, err := Build(w, in, ScaleTest)
			if err != nil {
				t.Fatal(err)
			}
			stored := 0
			for _, tr := range app.Traces {
				for _, seg := range tr.Distinct() {
					stored += len(seg)
				}
			}
			if ratio := float64(stored) / float64(app.Records()); ratio > bound {
				t.Errorf("%s/%s: stores %d of %d dynamic records (%.4f), bound %.2f",
					w, in, stored, app.Records(), ratio, bound)
			}
		}
	}
}
