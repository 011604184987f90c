package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"rnrsim/internal/bench"
	"rnrsim/internal/sim"
	"rnrsim/internal/telemetry"
)

// newTestServer spins a full HTTP stack (httptest server → Server →
// Manager) at test scale.
func newTestServer(t *testing.T, opts Options) (*httptest.Server, *Manager) {
	t.Helper()
	m := newTestManager(t, opts)
	ts := httptest.NewServer(NewServer(m))
	t.Cleanup(ts.Close)
	return ts, m
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeView(t *testing.T, resp *http.Response) JobView {
	t.Helper()
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode job view: %v", err)
	}
	return v
}

// TestHTTPSubmitWaitAndFetch drives the happy path over the wire:
// POST ?wait=1 blocks to completion, and both the submit response and
// a later GET carry the stamped result.
func TestHTTPSubmitWaitAndFetch(t *testing.T) {
	ts, _ := newTestServer(t, Options{Workers: 1})
	resp := postJSON(t, ts.URL+"/v1/runs?wait=1", testSpec())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	v := decodeView(t, resp)
	if v.State != StateDone || v.ID != RunJobID(testSpec()) {
		t.Fatalf("view = {state %q, id %q}, want done/%q", v.State, v.ID, RunJobID(testSpec()))
	}
	if v.SchemaVersion != sim.ExportSchemaVersion || v.GeneratedAt == "" {
		t.Errorf("view envelope = %q/%q", v.SchemaVersion, v.GeneratedAt)
	}
	if len(v.Result) == 0 {
		t.Fatal("wait=1 response has no result payload")
	}

	// GET by id returns the cached result.
	get, err := http.Get(ts.URL + "/v1/runs/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	gv := decodeView(t, get)
	if gv.State != StateDone || len(gv.Result) == 0 {
		t.Errorf("GET view = {state %q, result %d bytes}", gv.State, len(gv.Result))
	}

	// Listing includes the job but omits the payload.
	list, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer list.Body.Close()
	var doc struct {
		SchemaVersion string    `json:"schema_version"`
		Jobs          []JobView `json:"jobs"`
	}
	if err := json.NewDecoder(list.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.SchemaVersion != sim.ExportSchemaVersion || len(doc.Jobs) != 1 || len(doc.Jobs[0].Result) != 0 {
		t.Errorf("listing = {schema %q, %d jobs}", doc.SchemaVersion, len(doc.Jobs))
	}

	// Unknown id → 404; bad spec → 400.
	if r404, _ := http.Get(ts.URL + "/v1/runs/rdeadbeef"); r404.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id status = %d, want 404", r404.StatusCode)
	}
	bad := postJSON(t, ts.URL+"/v1/runs", RunSpec{Workload: "nope", Input: "x", Scale: "test"})
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("bad spec status = %d, want 400", bad.StatusCode)
	}
	bad.Body.Close()
}

// sseFrame is one parsed SSE frame.
type sseFrame struct {
	id    int
	event string
	data  Event
}

// readSSE parses frames until the stream ends or limit frames arrive.
func readSSE(t *testing.T, r io.Reader, limit int) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			frames = append(frames, cur)
			if len(frames) >= limit {
				return frames
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, "id: "):
			fmt.Sscanf(line, "id: %d", &cur.id)
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
		}
	}
	return frames
}

// TestHTTPSSEOrdering subscribes to a job's event stream and checks
// the lifecycle ordering queued → running → phase* → done with
// strictly increasing sequence numbers and monotonic iterations.
func TestHTTPSSEOrdering(t *testing.T) {
	ts, _ := newTestServer(t, Options{Workers: 1})
	sub := postJSON(t, ts.URL+"/v1/runs", testSpec())
	if sub.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", sub.StatusCode)
	}
	v := decodeView(t, sub)

	resp, err := http.Get(ts.URL + "/v1/runs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	frames := readSSE(t, resp.Body, 1<<20) // read to stream end
	if len(frames) < 3 {
		t.Fatalf("only %d frames", len(frames))
	}

	if frames[0].data.State != StateQueued || frames[0].event != EventState {
		t.Errorf("first frame = %+v, want queued state", frames[0])
	}
	last := frames[len(frames)-1]
	if last.data.State != StateDone {
		t.Errorf("last frame = %+v, want done state", last)
	}
	sawRunning, phases := false, 0
	lastIter := -1
	for i, f := range frames {
		if f.id != i || f.data.Seq != i {
			t.Fatalf("frame %d has id %d / seq %d — not gapless", i, f.id, f.data.Seq)
		}
		switch f.event {
		case EventState:
			if f.data.State == StateRunning {
				if phases > 0 {
					t.Error("phase tick before running state")
				}
				sawRunning = true
			}
		case EventPhase:
			if !sawRunning {
				t.Error("phase tick before running state")
			}
			if f.data.Phase == nil || f.data.Phase.Iteration <= lastIter {
				t.Fatalf("phase %d not monotonic: %+v (last %d)", i, f.data.Phase, lastIter)
			}
			lastIter = f.data.Phase.Iteration
			phases++
		}
	}
	if !sawRunning || phases == 0 {
		t.Errorf("stream had running=%v, %d phase ticks", sawRunning, phases)
	}

	// A late subscriber to the finished job replays the history and the
	// stream terminates immediately.
	late, err := http.Get(ts.URL + "/v1/runs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer late.Body.Close()
	replay := readSSE(t, late.Body, 1<<20)
	if len(replay) != len(frames) {
		t.Errorf("replay = %d frames, live = %d", len(replay), len(frames))
	}
}

// TestHTTPClientDisconnectCancels is the abandonment acceptance test
// over the wire: kill the only SSE subscriber of a running job and the
// simulation is cancelled underneath.
func TestHTTPClientDisconnectCancels(t *testing.T) {
	ts, m := newTestServer(t, Options{Workers: 1})
	sub := postJSON(t, ts.URL+"/v1/runs", testSpec())
	v := decodeView(t, sub)
	j, err := m.Job(v.ID)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/runs/"+v.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	waitPhase(t, j, 10*time.Second) // sim demonstrably ticking
	cancel()                        // client goes away

	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("job survived its last watcher")
	}
	if st := j.State(); st != StateCanceled {
		t.Fatalf("state = %q, want canceled", st)
	}
	if got := counterValue(m.Registry(), CounterJobsAbandoned); got != 1 {
		t.Errorf("%s = %d, want 1", CounterJobsAbandoned, got)
	}
}

// TestHTTPQueueFull exercises 429 + Retry-After over the wire.
func TestHTTPQueueFull(t *testing.T) {
	ts, m := newTestServer(t, Options{Workers: 1, QueueDepth: 1, RetryAfter: 7 * time.Second})
	holdRuns(t, m, "test")
	r1 := postJSON(t, ts.URL+"/v1/runs", testSpec())
	v1 := decodeView(t, r1)
	j1, err := m.Job(v1.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j1, StateRunning, 10*time.Second)

	spec2 := testSpec()
	spec2.Prefetcher = "nextline"
	r2 := postJSON(t, ts.URL+"/v1/runs", spec2)
	if r2.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit status = %d, want 202", r2.StatusCode)
	}
	r2.Body.Close()

	spec3 := testSpec()
	spec3.Prefetcher = "bingo"
	r3 := postJSON(t, ts.URL+"/v1/runs", spec3)
	defer r3.Body.Close()
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit status = %d, want 429", r3.StatusCode)
	}
	// The hint is jittered ±25% around the 7s base: any integer second
	// in [5.25, 8.75] truncates into {5..8}.
	ra, err := strconv.Atoi(r3.Header.Get("Retry-After"))
	if err != nil || ra < 5 || ra > 8 {
		t.Errorf("Retry-After = %q, want an int in [5, 8] (7s base ±25%%)", r3.Header.Get("Retry-After"))
	}
}

// TestHTTPCancel cancels via DELETE.
func TestHTTPCancel(t *testing.T) {
	ts, m := newTestServer(t, Options{Workers: 1})
	sub := postJSON(t, ts.URL+"/v1/runs", testSpec())
	v := decodeView(t, sub)
	j, _ := m.Job(v.ID)
	waitState(t, j, StateRunning, 10*time.Second)

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/runs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dv := decodeView(t, resp)
	<-j.Done()
	if st := j.State(); st != StateCanceled {
		t.Fatalf("state = %q after DELETE (view state %q), want canceled", st, dv.State)
	}
}

// TestHTTPExperiments covers the registry listing and a whole-table
// experiment job over the wire.
func TestHTTPExperiments(t *testing.T) {
	ts, _ := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		SchemaVersion string           `json:"schema_version"`
		DefaultScale  string           `json:"default_scale"`
		Scales        []string         `json:"scales"`
		Experiments   []ExperimentInfo `json:"experiments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.SchemaVersion != sim.ExportSchemaVersion || doc.DefaultScale != "test" {
		t.Errorf("doc envelope = %q/%q", doc.SchemaVersion, doc.DefaultScale)
	}
	byID := map[string]ExperimentInfo{}
	for _, e := range doc.Experiments {
		byID[e.ID] = e
	}
	if e, ok := byID["fig6"]; !ok || e.Title == "" || e.Runs == 0 {
		t.Errorf("fig6 entry = %+v", e)
	}
	if e, ok := byID["tableII"]; !ok || e.Runs != 0 {
		t.Errorf("tableII entry = %+v (static tables plan no runs)", e)
	}
	// Co-runs and core-scaling runs go through the planned run path too.
	if e := byID["corun"]; e.Runs != 12 {
		t.Errorf("corun entry = %+v, want 12 runs", e)
	}
	if e := byID["core-scaling"]; e.Runs != 8 {
		t.Errorf("core-scaling entry = %+v, want 8 runs", e)
	}
	if len(doc.Experiments) != len(bench.ExperimentIDs) {
		t.Errorf("listed %d experiments, want %d", len(doc.Experiments), len(bench.ExperimentIDs))
	}

	// Run the static tableII as a job, waiting inline.
	er := postJSON(t, ts.URL+"/v1/experiments/tableII?wait=1", RunSpec{Scale: "test"})
	if er.StatusCode != http.StatusOK {
		t.Fatalf("experiment status = %d, want 200", er.StatusCode)
	}
	ev := decodeView(t, er)
	if ev.State != StateDone || ev.Kind != KindExperiment || ev.Experiment != "tableII" {
		t.Fatalf("experiment view = %+v", ev)
	}
	var table TableResult
	if err := json.Unmarshal(ev.Result, &table); err != nil || table.Table == nil {
		t.Fatalf("table payload: %v", err)
	}

	if bad := postJSON(t, ts.URL+"/v1/experiments/nope", RunSpec{}); bad.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown experiment status = %d, want 400", bad.StatusCode)
	}
}

// TestHTTPMetrics checks the Prometheus text exposition.
func TestHTTPMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	ts, _ := newTestServer(t, Options{Workers: 1, Registry: reg})
	postJSON(t, ts.URL+"/v1/runs?wait=1", testSpec()).Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)

	for _, want := range []string{
		"# TYPE rnrd_jobs_submitted counter\nrnrd_jobs_submitted 1\n",
		"# TYPE rnrd_jobs_done counter\nrnrd_jobs_done 1\n",
		"# TYPE rnrd_queue_depth gauge\nrnrd_queue_depth 0\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
	// telemetry.Default counters (the simulator's own) are merged in.
	if !strings.Contains(text, "sim_runs_cancelled") {
		t.Errorf("metrics missing merged telemetry.Default instruments\n%s", text)
	}
	// Every line is either a comment or `name value`.
	lineRE := regexp.MustCompile(`^(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge))$|^([a-zA-Z_:][a-zA-Z0-9_:]*) (-?[0-9.e+-]+)$`)
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if !lineRE.MatchString(line) {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

// TestHTTPHealthz flips /healthz from 200 to 503 across shutdown.
func TestHTTPHealthz(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewManager(Options{DefaultScale: "test", Workers: 1, Registry: reg, Logf: t.Logf})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	ok, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", ok.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	drained, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	drained.Body.Close()
	if drained.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", drained.StatusCode)
	}
	// Submissions over the wire are refused too.
	sub := postJSON(t, ts.URL+"/v1/runs", testSpec())
	sub.Body.Close()
	if sub.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %d, want 503", sub.StatusCode)
	}
}

// oversizedRunSpec is a syntactically valid run spec one byte over
// MaxBodyBytes, so only the size cap can reject it.
func oversizedRunSpec() string {
	const frame = `{"workload":"","input":"urand","scale":"test"}`
	return `{"workload":"` + strings.Repeat("a", MaxBodyBytes+1-len(frame)) + `","input":"urand","scale":"test"}`
}

// TestOversizedBodyRejected pins the request-body cap: a body over
// MaxBodyBytes answers 413 with the JSON error envelope, and a malformed
// body under the cap still answers 400.
func TestOversizedBodyRejected(t *testing.T) {
	ts, m := newTestServer(t, Options{Workers: 1})
	body := oversizedRunSpec()
	if len(body) != MaxBodyBytes+1 {
		t.Fatalf("oversized body is %d bytes, want %d", len(body), MaxBodyBytes+1)
	}
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, want 413", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || !strings.Contains(eb.Error, strconv.Itoa(MaxBodyBytes)) {
		t.Errorf("413 body = %+v (%v), want an error naming the %d-byte cap", eb, err, MaxBodyBytes)
	}
	if n := len(m.Jobs()); n != 0 {
		t.Errorf("oversized body created %d jobs", n)
	}

	bad, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(`{"workload":`))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status = %d, want 400", bad.StatusCode)
	}
}
