package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rnrsim/internal/serve"
	"rnrsim/internal/telemetry"
)

// testWorker is one complete in-process rnrd worker (manager + HTTP
// server) at test scale, behind a chaos injector (transparent until a
// fault is armed).
type testWorker struct {
	id  string
	url string
	m   *serve.Manager
	inj *injector
}

func newTestWorker(t testing.TB, id string) *testWorker {
	t.Helper()
	m := serve.NewManager(serve.Options{
		DefaultScale: "test",
		WorkerID:     id,
		Registry:     telemetry.NewRegistry(),
		Logf:         t.Logf,
	})
	inj := newInjector(id)
	ts := httptest.NewServer(inj.wrap(serve.NewServer(m)))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = m.Shutdown(ctx)
	})
	return &testWorker{id: id, url: ts.URL, m: m, inj: inj}
}

// newTestCoordinator builds a coordinator with test-friendly timing
// defaults (fast heartbeats) on a private
// registry, registers the given workers, and tears everything down on
// cleanup (coordinator first: its heartbeat loop must stop before the
// workers' servers close).
func newTestCoordinator(t testing.TB, cfg Config, ws ...*testWorker) *Coordinator {
	t.Helper()
	if cfg.DefaultScale == "" {
		cfg.DefaultScale = "test"
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 20 * time.Millisecond
	}
	if cfg.HeartbeatTimeout == 0 {
		// The default (= interval) is far too tight for a loaded test
		// box: a busy-but-healthy worker must not be declared dead.
		cfg.HeartbeatTimeout = 2 * time.Second
	}
	if cfg.DispatchTimeout == 0 {
		cfg.DispatchTimeout = 10 * time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	c := NewCoordinator(cfg)
	t.Cleanup(c.Close)
	for _, w := range ws {
		if err := c.AddWorker(w.id, w.url); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func testSpec() serve.RunSpec {
	return serve.RunSpec{Workload: "pagerank", Input: "urand", Prefetcher: "none", Scale: "test"}
}

// baselineStateHash runs specs through a plain single-daemon manager —
// no cluster, no chaos — and returns each content-addressed job ID's
// state hash. This is the ground truth the chaos differentials compare
// against.
func baselineStateHash(t testing.TB, specs ...serve.RunSpec) map[string]string {
	t.Helper()
	m := serve.NewManager(serve.Options{
		DefaultScale: "test",
		Registry:     telemetry.NewRegistry(),
		Logf:         t.Logf,
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = m.Shutdown(ctx)
	}()
	out := make(map[string]string, len(specs))
	for _, spec := range specs {
		spec.Detach = true // no watcher: don't let it abandon
		j, _, err := m.SubmitRun(spec)
		if err != nil {
			t.Fatalf("baseline submit: %v", err)
		}
		select {
		case <-j.Done():
		case <-time.After(60 * time.Second):
			t.Fatalf("baseline run %s did not finish", j.ID)
		}
		if st := j.State(); st != serve.StateDone {
			t.Fatalf("baseline run %s ended %s: %s", j.ID, st, j.View(false).Error)
		}
		hash := extractStateHash(j.View(true).Result)
		if hash == "" {
			t.Fatalf("baseline run %s has no state hash", j.ID)
		}
		out[j.ID] = hash
	}
	return out
}

// waitWorkerHealth polls the registry until the worker reaches the
// wanted health state.
func waitWorkerHealth(t testing.TB, c *Coordinator, id, want string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, w := range c.Workers() {
			if w.ID == id && w.Health == want {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("worker %s never reached health %q (registry: %+v)", id, want, c.Workers())
}

// --- ring ---

func TestRingStableRoutingAndMinimalRemap(t *testing.T) {
	r := newRing()
	for _, id := range []string{"a", "b", "c"} {
		r.add(id)
	}
	keys := make([]string, 1000)
	owners := make(map[string]string, len(keys))
	counts := map[string]int{}
	for i := range keys {
		keys[i] = fmt.Sprintf("job-%d", i)
		id, ok := r.pick(keys[i], nil)
		if !ok {
			t.Fatalf("pick(%q) found no owner on a 3-member ring", keys[i])
		}
		if again, _ := r.pick(keys[i], nil); again != id {
			t.Fatalf("pick(%q) unstable: %s then %s", keys[i], id, again)
		}
		owners[keys[i]] = id
		counts[id]++
	}
	// Virtual nodes keep the split roughly even: no member below 15%.
	for id, n := range counts {
		if n < 150 {
			t.Errorf("member %s owns only %d/1000 keys — ring badly unbalanced (%v)", id, n, counts)
		}
	}
	// Removing one member remaps only its keys.
	r.remove("c")
	for _, k := range keys {
		id, ok := r.pick(k, nil)
		if !ok {
			t.Fatalf("pick(%q) failed after removal", k)
		}
		if was := owners[k]; was != "c" && id != was {
			t.Fatalf("key %q moved %s→%s though %s is still a member", k, was, id, was)
		}
		if owners[k] == "c" && id == "c" {
			t.Fatalf("key %q still routed to removed member", k)
		}
	}
	// Exclusion walks to a different member; excluding everyone fails.
	id0, _ := r.pick("job-0", nil)
	alt, ok := r.pick("job-0", map[string]bool{id0: true})
	if !ok || alt == id0 {
		t.Fatalf("exclusion of %s produced (%s, %v)", id0, alt, ok)
	}
	if _, ok := r.pick("job-0", map[string]bool{"a": true, "b": true}); ok {
		t.Fatal("pick succeeded with every member excluded")
	}
	r.remove("a")
	r.remove("b")
	if _, ok := r.pick("job-0", nil); ok {
		t.Fatal("pick succeeded on an empty ring")
	}
}

// --- backoff ---

func TestBackoffSeededAndCapped(t *testing.T) {
	const base, cap = 10 * time.Millisecond, 80 * time.Millisecond
	a := newBackoff(base, cap, 42)
	b := newBackoff(base, cap, 42)
	other := newBackoff(base, cap, 43)
	same, diff := true, false
	for attempt := 0; attempt < 32; attempt++ {
		da, db, do := a.delay(attempt%6), b.delay(attempt%6), other.delay(attempt%6)
		if da != db {
			same = false
		}
		if da != do {
			diff = true
		}
		bound := base << uint(attempt%6)
		if bound > cap {
			bound = cap
		}
		if da <= 0 || da > bound {
			t.Fatalf("delay(%d) = %v outside (0, %v]", attempt%6, da, bound)
		}
	}
	if !same {
		t.Error("same seed produced different delay sequences")
	}
	if !diff {
		t.Error("different seeds produced identical delay sequences")
	}
}

// --- health state machine ---

// TestHealthStateMachine drives one worker through
// alive → suspect → dead → resurrected using a controllable status
// stub, checking ring membership at each step.
func TestHealthStateMachine(t *testing.T) {
	var broken atomic.Bool
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if broken.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(serve.WorkerStatus{WorkerID: "s1"})
	}))
	defer stub.Close()

	c := newTestCoordinator(t, Config{
		HeartbeatInterval: 10 * time.Millisecond,
	})
	if err := c.AddWorker("s1", stub.URL); err != nil {
		t.Fatal(err)
	}
	waitWorkerHealth(t, c, "s1", "alive", 2*time.Second)

	broken.Store(true)
	waitWorkerHealth(t, c, "s1", "suspect", 2*time.Second)
	if c.LiveWorkers() != 1 {
		t.Error("suspect worker fell off the ring — a single missed probe must not reshard")
	}
	waitWorkerHealth(t, c, "s1", "dead", 2*time.Second)
	if c.LiveWorkers() != 0 {
		t.Error("dead worker still on the ring")
	}
	if got := c.Registry().Counter(CounterWorkerDeaths).Load(); got == 0 {
		t.Error("worker death not counted")
	}

	broken.Store(false)
	waitWorkerHealth(t, c, "s1", "alive", 2*time.Second)
	if c.LiveWorkers() != 1 {
		t.Error("resurrected worker not back on the ring")
	}
}

// --- dispatch ---

func TestDispatchRoutesCachesAndValidates(t *testing.T) {
	w1, w2 := newTestWorker(t, "w1"), newTestWorker(t, "w2")
	c := newTestCoordinator(t, Config{}, w1, w2)

	spec := testSpec()
	wantOwner, _, ok := c.pickWorker(serve.RunJobID(spec), nil)
	if !ok {
		t.Fatal("no owner for test spec")
	}
	res, err := c.Dispatch(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.WorkerID != wantOwner || res.Attempts != 1 {
		t.Errorf("dispatch = {worker %s, attempts %d}, want ring owner %s in one attempt",
			res.WorkerID, res.Attempts, wantOwner)
	}
	if res.StateHash == "" || res.View.State != serve.StateDone {
		t.Errorf("result = {hash %q, state %s}", res.StateHash, res.View.State)
	}

	// Same spec re-routes to the same worker (its cache shard).
	again, err := c.Dispatch(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.WorkerID != res.WorkerID || again.StateHash != res.StateHash {
		t.Errorf("re-dispatch = {worker %s, hash %s}, want {%s, %s}",
			again.WorkerID, again.StateHash, res.WorkerID, res.StateHash)
	}

	// Spec validation fails fast, before any worker is bothered.
	if _, err := c.Dispatch(context.Background(), serve.RunSpec{Workload: "nope", Input: "x"}); err == nil {
		t.Error("bad spec dispatched without error")
	}
	if got := c.Registry().Counter(CounterDispatches).Load(); got != 2 {
		t.Errorf("dispatch counter = %d, want 2", got)
	}
}

// TestGracefulDegradation pins the empty-ring contract over HTTP: 503
// with a jittered integer Retry-After on /healthz, dispatch and sweep
// submission, plus the reject counter.
func TestGracefulDegradation(t *testing.T) {
	c := newTestCoordinator(t, Config{})
	ts := httptest.NewServer(NewServer(c))
	defer ts.Close()

	check503 := func(resp *http.Response, err error, what string) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s status = %d, want 503", what, resp.StatusCode)
		}
		secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || secs < 1 || secs > 2 {
			t.Errorf("%s Retry-After = %q, want int in [1,2] (2s ±25%%)",
				what, resp.Header.Get("Retry-After"))
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	check503(resp, err, "healthz")
	resp, err = http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"workload":"pagerank","input":"urand","scale":"test"}`))
	check503(resp, err, "dispatch")
	resp, err = http.Post(ts.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"workloads":["pagerank.urand"]}`))
	check503(resp, err, "sweep")

	if got := c.Registry().Counter(CounterNoWorkerRejects).Load(); got == 0 {
		t.Error("no-worker rejects not counted")
	}
}

// TestJoinLeaveHTTP exercises the membership endpoints.
func TestJoinLeaveHTTP(t *testing.T) {
	w1 := newTestWorker(t, "w1")
	c := newTestCoordinator(t, Config{})
	ts := httptest.NewServer(NewServer(c))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/cluster/join", "application/json",
		strings.NewReader(fmt.Sprintf(`{"id":"w1","url":%q}`, w1.url)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join status = %d, want 200", resp.StatusCode)
	}
	var listing struct {
		Workers []WorkerInfo `json:"workers"`
	}
	resp, err = http.Get(ts.URL + "/v1/cluster/workers")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Workers) != 1 || listing.Workers[0].ID != "w1" || listing.Workers[0].Health != "alive" {
		t.Fatalf("listing = %+v, want one alive w1", listing.Workers)
	}

	// Health answers once a worker is on the ring.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz with a worker = %d, want 200", resp.StatusCode)
	}

	// Bad join bodies are client errors.
	resp, err = http.Post(ts.URL+"/v1/cluster/join", "application/json",
		strings.NewReader(`{"id":"","url":"not-a-url"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad join status = %d, want 400", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/cluster/workers/w1", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leave status = %d, want 200", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/cluster/workers/ghost", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown leave status = %d, want 404", resp.StatusCode)
	}
	if c.LiveWorkers() != 0 {
		t.Error("worker still registered after leave")
	}
}

// TestCoordinatorOversizedBodyRejected pins the coordinator's request-body
// cap: a run spec over serve.MaxBodyBytes answers 413 before routing,
// where an in-limit spec on the same empty ring answers 503.
func TestCoordinatorOversizedBodyRejected(t *testing.T) {
	c := newTestCoordinator(t, Config{})
	ts := httptest.NewServer(NewServer(c))
	defer ts.Close()
	pad := strings.Repeat("a", serve.MaxBodyBytes)
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"workload":"` + pad + `","input":"urand","scale":"test"}`, http.StatusRequestEntityTooLarge},
		{`{"workload":"pagerank","input":"urand","scale":"test"}`, http.StatusServiceUnavailable},
	} {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%d-byte body status = %d, want %d", len(tc.body), resp.StatusCode, tc.want)
		}
	}
}
