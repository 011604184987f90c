package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"rnrsim/internal/audit"
	"rnrsim/internal/obs"
	"rnrsim/internal/telemetry"

	"rnrsim/internal/apps"
)

// The simulator itself runs one System on one goroutine, but its hosts
// run many Systems at once: rnrd serves a job per slot, the cluster
// coordinator fans sweeps out, and internal/bench prewarms its plan on a
// worker pool. Those Systems share the read-only *apps.App they were
// built from and nothing else. The tests in this file hold that line:
// a System simulated alongside others on concurrent goroutines must
// produce exactly what it produces with nothing else running. Under
// -race they also catch any mutable state that leaks between Systems
// (a package-level table, a memoised trace, a shared recorder).

// concurrentCopies is how many Systems each concurrent run puts on the
// same configuration and app at the same time.
const concurrentCopies = 2

// runQuiet builds and runs one System on the event engine, returning an
// error instead of failing the test so that it can run off the test's
// goroutine.
func runQuiet(cfg Config, app *apps.App) (*Result, error) {
	s, err := New(cfg, app)
	if err != nil {
		return nil, err
	}
	return s.RunAll()
}

// runConcurrently runs n copies of run at once, each on its own
// goroutine, and returns their outputs in copy order. The goroutines
// start together so that the copies really overlap.
func runConcurrently[T any](t *testing.T, n int, run func() (T, error)) []T {
	t.Helper()
	out := make([]T, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			out[i], errs[i] = run()
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent copy %d: %v", i, err)
		}
	}
	return out
}

// TestParallelDifferentialMatrix sweeps configurations that exercise
// the auxiliary state a System owns — every prefetcher family, audit
// sweeps, the lifecycle observer, the ideal LLC and context switching —
// and holds Systems run concurrently, all on one shared app, to the
// byte-identical export envelope of the same configuration run with
// nothing else in flight.
func TestParallelDifferentialMatrix(t *testing.T) {
	fixedExportClock(t, time.Date(2026, 3, 4, 5, 6, 7, 0, time.UTC))
	app := testApp(t)
	type tcase struct {
		name string
		cfg  Config
	}
	cases := []tcase{
		{"none", testConfig().WithPrefetcher(PFNone)},
		{"nextline", testConfig().WithPrefetcher(PFNextLine)},
		{"stream", testConfig().WithPrefetcher(PFStream)},
		{"rnr", testConfig().WithPrefetcher(PFRnR)},
		{"rnr-combined", testConfig().WithPrefetcher(PFRnRCombined)},
	}

	audited := testConfig().WithPrefetcher(PFRnR)
	audited.Audit = &audit.Config{Interval: 256}
	cases = append(cases, tcase{"rnr+audit", audited})

	observed := testConfig().WithPrefetcher(PFRnR)
	observed.Obs = &obs.Config{}
	cases = append(cases, tcase{"rnr+obs", observed})

	ideal := testConfig().WithPrefetcher(PFNone)
	ideal.IdealLLC = true
	cases = append(cases, tcase{"ideal-llc", ideal})

	ctxCfg := testConfig().WithPrefetcher(PFRnR)
	ctxCfg.CtxSwitch = CtxSwitchConfig{Period: 20_000, Duration: 7_000}
	cases = append(cases, tcase{"rnr+ctx", ctxCfg})

	// The references run one after another before any subtest starts,
	// so each is a run with nothing else in flight.
	want := make(map[string][]byte, len(cases))
	for _, tc := range cases {
		r, _ := runEngine(t, tc.cfg, app, false)
		want[tc.name] = exportBytes(t, r)
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			got := runConcurrently(t, concurrentCopies, func() (*Result, error) {
				return runQuiet(tc.cfg, app)
			})
			for i, r := range got {
				if b := exportBytes(t, r); !bytes.Equal(b, want[tc.name]) {
					t.Errorf("copy %d: export envelope differs from the solo run\nconcurrent: %.2048s\nsolo:       %.2048s",
						i, b, want[tc.name])
				}
			}
		})
	}
}

// TestParallelTelemetryJSONLIdentical gives each concurrent System its
// own telemetry recorder and requires every recorder's JSONL series —
// stamps and values — to be byte-identical to a solo run's: no sample
// may land in, or be read from, another System's recorder.
func TestParallelTelemetryJSONLIdentical(t *testing.T) {
	app := testApp(t)
	cfg := testConfig().WithPrefetcher(PFRnR)
	const interval = 1000
	want := telemetrySeries(t, cfg, app, false, interval)
	got := runConcurrently(t, concurrentCopies, func() ([]byte, error) {
		c := cfg
		rec := telemetry.New(telemetry.Config{SampleInterval: interval})
		c.Telemetry = rec
		if _, err := runQuiet(c, app); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err := rec.WriteMetricsJSONL(&buf)
		return buf.Bytes(), err
	})
	for i, b := range got {
		if !bytes.Equal(b, want) {
			t.Errorf("copy %d: telemetry JSONL differs from the solo run\nconcurrent: %.512s\nsolo:       %.512s",
				i, b, want)
		}
	}
}

// TestFuzzedTracesParallelDifferential is the fuzz counterpart of the
// matrix: randomized marker/load interleavings — including pathological
// shapes — run solo and then as concurrent copies, and the final state
// hashes, per-core sub-hashes and architectural statistics must be
// identical.
func TestFuzzedTracesParallelDifferential(t *testing.T) {
	seeds := make([]int64, 0, 32)
	for s := int64(1); s <= 32; s++ {
		seeds = append(seeds, s)
	}
	if testing.Short() {
		seeds = seeds[:8]
	}
	type fuzzCase struct {
		seed int64
		cfg  Config
		app  *apps.App
		want *Result
	}
	// Solo references first, one after another, as in the matrix.
	cases := map[bool][]fuzzCase{}
	for _, patho := range []bool{false, true} {
		for _, seed := range seeds {
			fc := audit.FuzzConfig{Seed: seed, Pathological: patho}.WithDefaults()
			fz := fuzzCase{seed: seed, cfg: fuzzMachine(fc.Cores).WithPrefetcher(PFRnR), app: audit.Fuzz(fc)}
			r, err := runQuiet(fz.cfg, fz.app)
			if err != nil {
				t.Fatalf("seed %d (patho=%v): %v", seed, patho, err)
			}
			fz.want = r
			cases[patho] = append(cases[patho], fz)
		}
	}
	for _, patho := range []bool{false, true} {
		patho := patho
		t.Run(fmt.Sprintf("patho=%v", patho), func(t *testing.T) {
			t.Parallel()
			for _, fz := range cases[patho] {
				fz := fz
				got := runConcurrently(t, concurrentCopies, func() (*Result, error) {
					return runQuiet(fz.cfg, fz.app)
				})
				for i, r := range got {
					if r.StateHash != fz.want.StateHash {
						t.Errorf("seed %d copy %d: state hash concurrent %016x != solo %016x",
							fz.seed, i, r.StateHash, fz.want.StateHash)
					}
					if !reflect.DeepEqual(r.CoreHashes, fz.want.CoreHashes) {
						t.Errorf("seed %d copy %d: core sub-hashes concurrent %v != solo %v",
							fz.seed, i, r.CoreHashes, fz.want.CoreHashes)
					}
					if r.Cycles != fz.want.Cycles || r.Instructions != fz.want.Instructions {
						t.Errorf("seed %d copy %d: cycles/instructions diverged: concurrent %d/%d, solo %d/%d",
							fz.seed, i, r.Cycles, r.Instructions, fz.want.Cycles, fz.want.Instructions)
					}
					if r.L2 != fz.want.L2 || r.LLC != fz.want.LLC || r.DRAM != fz.want.DRAM {
						t.Errorf("seed %d copy %d: memory-system stats diverged", fz.seed, i)
					}
				}
			}
		})
	}
}
