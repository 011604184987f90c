package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"rnrsim/internal/cluster/chaos"
	"rnrsim/internal/serve"
)

// TestRetryWithExclusionChaos is the worker-loss differential: for
// each fault kind, the job's ring owner is broken under it, and the
// dispatch must (a) complete by re-running on the *other* worker, (b)
// produce a state hash identical to a chaos-free single-daemon run of
// the same spec, and (c) leave the retry visible in telemetry. This is
// the cluster's core correctness claim — faults cost latency, never
// results.
func TestRetryWithExclusionChaos(t *testing.T) {
	spec := testSpec()
	baseline := baselineStateHash(t, spec)
	wantHash := baseline[serve.RunJobID(spec)]

	// The timeout ends the victim's hung attempt and also bounds the
	// survivor's whole run, a test-scale simulation that takes ~3 s
	// under -race on a loaded 2-CPU machine.
	const dispatchTimeout = 4 * time.Second
	cases := []struct {
		kind  string
		delay time.Duration
	}{
		// Kill lands 30ms into the dispatch: the job is lost mid-run.
		{chaos.Kill, 30 * time.Millisecond},
		// Hang never answers: the dispatch timeout has to fire.
		{chaos.Hang, 0},
		// Slow beyond the dispatch timeout is indistinguishable from a
		// hang to the coordinator but exercises the delay path.
		{chaos.Slow, 2 * dispatchTimeout},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			w1, w2 := newTestWorker(t, "w1"), newTestWorker(t, "w2")
			c := newTestCoordinator(t, Config{
				DispatchTimeout: dispatchTimeout,
			}, w1, w2)

			owner, _, ok := c.pickWorker(serve.RunJobID(spec), nil)
			if !ok {
				t.Fatal("no ring owner")
			}
			victim, survivor := w1, w2
			if owner == "w2" {
				victim, survivor = w2, w1
			}
			victim.inj.Arm(chaos.Fault{Worker: victim.id, Kind: tc.kind, After: 0, Delay: tc.delay})

			res, err := c.Dispatch(context.Background(), spec)
			if err != nil {
				t.Fatalf("dispatch under %s: %v", tc.kind, err)
			}
			if res.WorkerID != survivor.id {
				t.Errorf("completed on %s, want survivor %s", res.WorkerID, survivor.id)
			}
			if res.Attempts != 2 {
				t.Errorf("attempts = %d, want 2 (one loss, one retry)", res.Attempts)
			}
			if res.StateHash != wantHash {
				t.Errorf("state hash diverged under %s: cluster %s vs single-daemon %s",
					tc.kind, res.StateHash, wantHash)
			}
			reg := c.Registry()
			if got := reg.Counter(CounterDispatchRetries).Load(); got == 0 {
				t.Error("retry not visible in telemetry")
			}
			if got := reg.Counter(CounterExclusions).Load(); got == 0 {
				t.Error("exclusion not visible in telemetry")
			}
		})
	}
}

// TestReplicateCheckVerifiesAndCatchesCorruption: a clean duplicate
// dispatch marks the result replicated; a corrupted owner makes the
// dispatch fail loudly with a hash-mismatch error and metric.
func TestReplicateCheckVerifiesAndCatchesCorruption(t *testing.T) {
	spec := testSpec()

	t.Run("clean", func(t *testing.T) {
		w1, w2 := newTestWorker(t, "w1"), newTestWorker(t, "w2")
		c := newTestCoordinator(t, Config{ReplicateCheck: 1}, w1, w2)
		res, err := c.Dispatch(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Replicated {
			t.Error("dispatch with ReplicateCheck=1 not marked replicated")
		}
		reg := c.Registry()
		if got := reg.Counter(CounterHashChecks).Load(); got != 1 {
			t.Errorf("hash checks = %d, want 1", got)
		}
		if got := reg.Counter(CounterHashMismatches).Load(); got != 0 {
			t.Errorf("hash mismatches = %d, want 0", got)
		}
	})

	t.Run("corrupt", func(t *testing.T) {
		w1, w2 := newTestWorker(t, "w1"), newTestWorker(t, "w2")
		c := newTestCoordinator(t, Config{ReplicateCheck: 1}, w1, w2)
		owner, _, ok := c.pickWorker(serve.RunJobID(spec), nil)
		if !ok {
			t.Fatal("no ring owner")
		}
		victim := w1
		if owner == "w2" {
			victim = w2
		}
		victim.inj.Arm(chaos.Fault{Worker: victim.id, Kind: chaos.Corrupt, After: 0})

		_, err := c.Dispatch(context.Background(), spec)
		if !errors.Is(err, ErrHashMismatch) {
			t.Fatalf("dispatch error = %v, want ErrHashMismatch", err)
		}
		if got := c.Registry().Counter(CounterHashMismatches).Load(); got != 1 {
			t.Errorf("hash mismatches = %d, want 1", got)
		}
	})

	t.Run("single-worker-skips", func(t *testing.T) {
		w1 := newTestWorker(t, "w1")
		c := newTestCoordinator(t, Config{ReplicateCheck: 1}, w1)
		res, err := c.Dispatch(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Replicated {
			t.Error("cluster of one claims replication")
		}
		if got := c.Registry().Counter(CounterHashChecks).Load(); got != 0 {
			t.Errorf("hash checks = %d on a one-worker ring, want 0", got)
		}
	})
}

// sseEvent is one decoded SSE frame.
type sseEvent struct {
	id   int
	typ  string
	data serve.Event
}

// readSSE decodes up to max frames (max<0: until EOF).
func readSSE(t *testing.T, r *bufio.Reader, max int) []sseEvent {
	t.Helper()
	var out []sseEvent
	cur := sseEvent{id: -1}
	for max < 0 || len(out) < max {
		line, err := r.ReadString('\n')
		if err != nil {
			return out
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "id: "):
			cur.id, _ = strconv.Atoi(line[4:])
		case strings.HasPrefix(line, "event: "):
			cur.typ = line[7:]
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(line[6:]), &cur.data); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
		case line == "":
			if cur.typ != "" {
				out = append(out, cur)
			}
			cur = sseEvent{id: -1}
		}
	}
	return out
}

// fetchMetrics scrapes the Prometheus exposition into a map.
func fetchMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			continue
		}
		out[name] = v
	}
	return out
}

// TestSweepChaosDifferential is the acceptance test: a parameter-grid
// sweep over two workers with a seeded kill mid-sweep must finish with
// every cell done, every state hash identical to a healthy
// single-daemon run of the same grid, the dead worker visible in the
// registry, and every injected fault observable in /metrics. The
// aggregate SSE stream must be resumable with Last-Event-ID.
func TestSweepChaosDifferential(t *testing.T) {
	grid := SweepSpec{
		Workloads:   []string{"pagerank.urand", "hyperanf.urand"},
		Prefetchers: []string{"none", "nextline"},
		Scales:      []string{"test"},
	}
	specs, err := grid.expand("test")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 {
		t.Fatalf("grid expanded to %d cells, want 4", len(specs))
	}
	baseline := baselineStateHash(t, specs...)

	w1, w2 := newTestWorker(t, "w1"), newTestWorker(t, "w2")
	// After the kill, w2 holds all sweepParallelism dispatches on its
	// GOMAXPROCS job slots, so a cell's dispatch also waits behind the
	// cells ahead of it in w2's queue; the timeout must cover that wait
	// on a loaded (-race) test machine.
	c := newTestCoordinator(t, Config{
		HeartbeatInterval: 15 * time.Millisecond,
		DispatchTimeout:   30 * time.Second,
	}, w1, w2)
	ts := httptest.NewServer(NewServer(c))
	defer ts.Close()

	// The grid must actually span both workers for the kill to matter.
	saw := map[string]bool{}
	for _, spec := range specs {
		owner, _, _ := c.pickWorker(serve.RunJobID(spec), nil)
		saw[owner] = true
	}
	if !saw["w1"] || !saw["w2"] {
		t.Fatalf("grid routes to %v — widen it so both workers own cells", saw)
	}
	// Seeded plan, filtered to the kill on w1: its first dispatch dies
	// 20ms in, every cell it owned must re-run on w2.
	w1.inj.Arm(chaos.Fault{Worker: "w1", Kind: chaos.Kill, After: 0, Delay: 20 * time.Millisecond})

	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"workloads":["pagerank.urand","hyperanf.urand"],"prefetchers":["none","nextline"],"scales":["test"]}`))
	if err != nil {
		t.Fatal(err)
	}
	var accepted SweepView
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || accepted.Total != 4 || accepted.State != SweepRunning {
		t.Fatalf("submit = {status %d, total %d, state %s}, want 202/4/running",
			resp.StatusCode, accepted.Total, accepted.State)
	}

	sw, err := c.SweepByID(accepted.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !sw.WaitDone(120 * time.Second) {
		t.Fatalf("sweep never finished: %+v", sw.View(false))
	}

	// Every cell done, every hash matching the healthy baseline.
	view := sw.View(true)
	if view.Done != 4 || view.Failed != 0 {
		t.Fatalf("sweep = {done %d, failed %d}: %+v", view.Done, view.Failed, view.Jobs)
	}
	retried := 0
	for _, job := range view.Jobs {
		if job.State != "done" {
			t.Errorf("cell %s ended %s: %s", job.Key, job.State, job.Error)
			continue
		}
		if want := baseline[job.Key]; job.StateHash != want {
			t.Errorf("cell %s hash diverged under chaos: %s vs baseline %s",
				job.Key, job.StateHash, want)
		}
		if job.Attempts > 1 {
			retried++
		}
		if job.Worker == "w1" {
			t.Errorf("cell %s claims completion on the killed worker", job.Key)
		}
	}
	if retried == 0 {
		t.Error("no cell records a retry — the kill never bit")
	}

	// The kill is observable: dead worker in the registry…
	waitWorkerHealth(t, c, "w1", "dead", 5*time.Second)
	// …and every fault effect in /metrics.
	metrics := fetchMetrics(t, ts.URL)
	for _, name := range []string{
		"cluster_dispatch_retries", "cluster_exclusions",
		"cluster_worker_deaths", "cluster_workers_dead",
		"cluster_heartbeat_misses",
	} {
		if metrics[name] == 0 {
			t.Errorf("metric %s = 0, want > 0 after an injected kill (metrics: %v)", name, metrics)
		}
	}
	if metrics["cluster_sweep_jobs_done"] != 4 {
		t.Errorf("cluster_sweep_jobs_done = %v, want 4", metrics["cluster_sweep_jobs_done"])
	}

	// SSE replay + resume: full stream is 4 sweep_job + 1 sweep_done;
	// resuming after event 1 replays exactly the rest, gapless.
	resp, err = http.Get(ts.URL + "/v1/sweeps/" + accepted.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	full := readSSE(t, bufio.NewReader(resp.Body), -1)
	resp.Body.Close()
	if len(full) != 5 || full[len(full)-1].typ != "sweep_done" {
		t.Fatalf("full stream has %d events ending %q, want 5 ending sweep_done",
			len(full), full[len(full)-1].typ)
	}
	for i, ev := range full {
		if ev.id != i {
			t.Fatalf("event %d carries id %d — stream not gapless", i, ev.id)
		}
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/sweeps/"+accepted.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", strconv.Itoa(full[1].id))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resumed := readSSE(t, bufio.NewReader(resp.Body), -1)
	resp.Body.Close()
	if len(resumed) != 3 || resumed[0].id != full[1].id+1 {
		t.Fatalf("resume after id %d replayed %d events starting id %d, want 3 starting %d",
			full[1].id, len(resumed), resumed[0].id, full[1].id+1)
	}
	var progress sweepProgress
	if err := json.Unmarshal(resumed[len(resumed)-1].data.Data, &progress); err != nil {
		t.Fatal(err)
	}
	if progress.Done != 4 || progress.Failed != 0 || progress.Total != 4 {
		t.Errorf("final progress = %+v, want 4/4 done", progress)
	}

	// The sweep listing and status endpoints agree.
	resp, err = http.Get(ts.URL + "/v1/sweeps/" + accepted.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got SweepView
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.State != SweepDone || len(got.Jobs) != 4 {
		t.Errorf("status endpoint = {state %s, %d jobs}", got.State, len(got.Jobs))
	}
	if _, err := c.SweepByID("sweep-999"); !errors.Is(err, ErrUnknownSweep) {
		t.Errorf("unknown sweep lookup = %v", err)
	}
}

// TestChaosPlanDeterministic pins the seeded plan generator.
func TestChaosPlanDeterministic(t *testing.T) {
	workers := []string{"w1", "w2", "w3"}
	a := chaos.Plan(11, workers, 4)
	b := chaos.Plan(11, workers, 4)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed, different plans:\n%v\n%v", a, b)
	}
	other := chaos.Plan(12, workers, 4)
	if fmt.Sprint(a) == fmt.Sprint(other) {
		t.Error("different seeds produced identical plans")
	}
	for i, f := range a {
		if f.Worker != workers[i] || f.After < 0 || f.After >= 4 || f.Kind == "" {
			t.Errorf("fault %d malformed: %+v", i, f)
		}
	}
}
