package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"time"

	"rnrsim/internal/apps"
	"rnrsim/internal/bench"
	"rnrsim/internal/coherence"
	"rnrsim/internal/multicore"
	"rnrsim/internal/sim"
)

// coRunSpec is the canonical 2-core co-run submission used across the
// serving tests: PageRank and spCG side by side with per-core RnR and
// the cross-core LLC prefetcher.
func coRunSpec() RunSpec {
	return RunSpec{
		Jobs:       []string{"pagerank.urand", "spcg.bbmat"},
		Prefetcher: string(sim.PFRnR),
		CrossCore:  true,
		Scale:      "test",
	}
}

// TestCoRunSpecValidation pins the submission-time rejections: every
// malformed co-run must fail Normalize (and therefore answer 400 over
// the wire) instead of panicking a worker later.
func TestCoRunSpecValidation(t *testing.T) {
	overMax := make([]string, coherence.MaxCores+1)
	for i := range overMax {
		overMax[i] = "pagerank.urand"
	}
	bad := []struct {
		name   string
		mutate func(*RunSpec)
	}{
		{"jobs plus workload", func(sp *RunSpec) { sp.Workload = "pagerank"; sp.Input = "urand" }},
		{"over max cores", func(sp *RunSpec) { sp.Jobs = overMax }},
		{"malformed job", func(sp *RunSpec) { sp.Jobs = []string{"pagerankurand"} }},
		{"unknown workload", func(sp *RunSpec) { sp.Jobs = []string{"nope.urand"} }},
		{"unknown input", func(sp *RunSpec) { sp.Jobs = []string{"pagerank.bbmat"} }},
		{"non-plain variant", func(sp *RunSpec) { sp.Variant = "ideal" }},
		{"crosscore without jobs", func(sp *RunSpec) {
			sp.Jobs = nil
			sp.Workload, sp.Input = "pagerank", "urand"
		}},
	}
	for _, tc := range bad {
		sp := coRunSpec()
		tc.mutate(&sp)
		if err := sp.Normalize("test"); err == nil {
			t.Errorf("%s: Normalize accepted %+v", tc.name, sp)
		} else {
			t.Logf("%s: %v", tc.name, err)
		}
	}

	// The happy path normalizes, canonicalises separators and keys on
	// the job list, so "/" and "." submissions coalesce.
	dot, slash, mixed := coRunSpec(), coRunSpec(), coRunSpec()
	slash.Jobs = []string{"pagerank/urand", "spcg/bbmat"}
	mixed.Jobs = []string{"pagerank/urand", "spcg.bbmat"}
	if err := dot.Normalize("test"); err != nil {
		t.Fatalf("canonical spec rejected: %v", err)
	}
	if err := slash.Normalize("test"); err != nil {
		t.Fatalf("slash-separated spec rejected: %v", err)
	}
	if err := mixed.Normalize("test"); err != nil {
		t.Fatalf("mixed-separator spec rejected: %v", err)
	}
	if RunJobID(dot) != RunJobID(slash) {
		t.Errorf("separator changed the content address: %q vs %q", dot.key(), slash.key())
	}
	if RunJobID(dot) != RunJobID(mixed) {
		t.Errorf("mixed separators changed the content address: %q vs %q", dot.key(), mixed.key())
	}
}

// TestHTTPCoRunOverMaxCores is the wire-level contract the issue calls
// out: a job list longer than the coherence directory supports answers
// HTTP 400, not a panic.
func TestHTTPCoRunOverMaxCores(t *testing.T) {
	ts, _ := newTestServer(t, Options{Workers: 1})
	sp := coRunSpec()
	sp.Jobs = make([]string, coherence.MaxCores+1)
	for i := range sp.Jobs {
		sp.Jobs[i] = "pagerank.urand"
	}
	resp := postJSON(t, ts.URL+"/v1/runs", sp)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-max co-run status = %d, want 400", resp.StatusCode)
	}
}

// TestCoRunJobReportsProgress holds served co-runs to the suite's run
// path: the finished job's event history carries per-iteration phase
// ticks keyed by the co-run key, and the co-run counts as exactly one
// fresh simulation.
func TestCoRunJobReportsProgress(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1})
	j, fresh, err := m.SubmitRun(coRunSpec())
	if err != nil || !fresh {
		t.Fatalf("SubmitRun = (%v, fresh=%v), want fresh job", err, fresh)
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("co-run job did not finish")
	}
	if st := j.State(); st != StateDone {
		t.Fatalf("state = %q, want done (err %q)", st, j.View(false).Error)
	}
	history, _, cancel := j.log.SubscribeFrom(-1)
	cancel()
	key, phases := j.Spec.key(), 0
	for _, ev := range history {
		if ev.Type != EventPhase {
			continue
		}
		phases++
		if ev.Phase.Key != key {
			t.Errorf("phase event keyed %q, want the co-run key %q", ev.Phase.Key, key)
		}
	}
	if phases == 0 {
		t.Errorf("finished co-run job published no phase events")
	}
	if n := m.suite(coRunSpec().Scale).FreshRuns(); n != 1 {
		t.Errorf("FreshRuns = %d after one co-run job, want 1", n)
	}
}

// TestHTTPCoRunServedVsDirect runs the canonical co-run through the
// full HTTP stack and asserts the served result is identical — state
// hash, per-core sub-hashes, coherence and cross-core sections — to a
// direct sim.Run of the same composed app on the same machine.
func TestHTTPCoRunServedVsDirect(t *testing.T) {
	ts, m := newTestServer(t, Options{Workers: 1})
	resp := postJSON(t, ts.URL+"/v1/runs?wait=1", coRunSpec())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	v := decodeView(t, resp)
	if v.State != StateDone {
		t.Fatalf("job state = %q (%s)", v.State, v.Error)
	}
	var served RunResult
	if err := json.Unmarshal(v.Result, &served); err != nil {
		t.Fatalf("decode run result: %v", err)
	}

	sp := coRunSpec()
	if err := sp.Normalize("test"); err != nil {
		t.Fatal(err)
	}
	jobs := make([]multicore.JobSpec, len(sp.Jobs))
	for k, raw := range sp.Jobs {
		j, err := multicore.ParseJob(raw)
		if err != nil {
			t.Fatal(err)
		}
		jobs[k] = j
	}
	sc, _ := apps.ParseScale(sp.Scale)
	app, err := multicore.Compose(sc, jobs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := m.suite(sp.Scale).Config
	cfg.Cores = len(jobs)
	cfg.Prefetcher = sim.PrefetcherKind(sp.Prefetcher)
	cfg.Coherence = true
	cfg.LLCBanks = 2
	cfg.CrossCore = sp.CrossCore
	cfg.Name = sp.key()
	direct, err := sim.Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}

	if want := fmt.Sprintf("%016x", direct.StateHash); served.StateHash != want {
		t.Errorf("served state hash %s != direct %s", served.StateHash, want)
	}
	if len(served.CoreStateHashes) != len(jobs) {
		t.Fatalf("served %d core hashes, want %d", len(served.CoreStateHashes), len(jobs))
	}
	for k, h := range direct.CoreHashes {
		if want := fmt.Sprintf("%016x", h); served.CoreStateHashes[k] != want {
			t.Errorf("core %d: served sub-hash %s != direct %s", k, served.CoreStateHashes[k], want)
		}
	}
	if served.Coherence == nil || served.CrossCore == nil {
		t.Fatalf("served co-run missing coherence/crosscore sections: %+v", served.ResultJSON)
	}
	if *served.Coherence != *direct.Coherence || *served.CrossCore != *direct.CrossCore {
		t.Errorf("served stat sections diverged from direct run")
	}
	if served.Key != sp.key() {
		t.Errorf("served key %q != spec key %q", served.Key, sp.key())
	}
}

// TestHTTPCoRunExperimentServedVsDirect runs the whole corun bench
// experiment as a daemon job and asserts the served table equals a
// direct assembly on an equivalent suite — the served/direct half of
// the experiment's determinism contract (the -j half lives in
// internal/bench).
func TestHTTPCoRunExperimentServedVsDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the co-run grid twice")
	}
	ts, m := newTestServer(t, Options{Workers: 1})
	resp := postJSON(t, ts.URL+"/v1/experiments/corun?wait=1", RunSpec{Scale: "test"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	v := decodeView(t, resp)
	if v.State != StateDone {
		t.Fatalf("experiment state = %q (%s)", v.State, v.Error)
	}
	var served TableResult
	if err := json.Unmarshal(v.Result, &served); err != nil {
		t.Fatalf("decode table result: %v", err)
	}

	direct := bench.NewSuite(m.suite("test").Scale)
	direct.Config = m.suite("test").Config
	want := direct.CoRun()
	if served.Table == nil || !reflect.DeepEqual(served.Table.Rows, want.Rows) {
		t.Errorf("served corun table diverged from direct assembly:\nserved %+v\ndirect %+v",
			served.Table, want)
	}
}
