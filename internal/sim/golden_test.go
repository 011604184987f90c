package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rnrsim/internal/apps"
	"rnrsim/internal/multicore"
)

// TestPrefetcherStateHashGolden pins the end-of-run state hash of every
// prefetcher kind on PageRank/urand (test scale, test machine), of every
// kind that a context switch replaces with a fresh instance under
// periodic switches, and of the two served 2-core coherent co-runs with
// the cross-core LLC prefetcher. A change to any prefetcher's parameters
// or tables moves its row. Run with -update to regenerate after an
// intentional behaviour change.
func TestPrefetcherStateHashGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("27 sequential simulations; the race tier runs with -short")
	}
	app, err := apps.Build("pagerank", "urand", apps.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	row := func(key string, cfg Config, app *apps.App) {
		fmt.Fprintf(&b, "%s %016x\n", key, runOne(t, cfg, app).StateHash)
	}
	for _, kind := range AllPrefetchers {
		row("pagerank/urand/"+string(kind), testConfig().WithPrefetcher(kind), app)
	}
	for _, kind := range AllPrefetchers {
		// PFNone has nothing to replace; RnR saves and restores its
		// engine instead of retraining.
		if kind == PFNone || kind == PFRnR || kind == PFRnRCombined {
			continue
		}
		cfg := testConfig().WithPrefetcher(kind)
		cfg.CtxSwitch = CtxSwitchConfig{Period: 20000, Duration: 5000}
		row("pagerank/urand/"+string(kind)+"/ctxsw", cfg, app)
	}
	// The two co-run pairs rnrd's served traffic composes.
	for _, jobs := range [][]multicore.JobSpec{
		{{Workload: "pagerank", Input: "urand"}, {Workload: "spcg", Input: "bbmat"}},
		{{Workload: "hyperanf", Input: "amazon"}, {Workload: "spcg", Input: "atmosmodj"}},
	} {
		corun, err := multicore.Compose(apps.ScaleTest, jobs)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []PrefetcherKind{PFNone, PFRnR} {
			cfg := coRunConfig()
			cfg.Prefetcher = kind
			row("corun:"+corun.Input+"/"+string(kind)+"/xcore", cfg, corun)
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "prefetcher_hashes.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("state hashes drifted from %s\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
