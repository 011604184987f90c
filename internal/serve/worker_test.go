package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"testing"
	"time"

	"rnrsim/internal/sim"
)

func jsonDecode(r io.Reader, v any) error { return json.NewDecoder(r).Decode(v) }

// TestRetryAfterJitterBounds pins the ±25% jitter contract on the
// queue-full backpressure hint: every sample lands inside the band,
// the band is actually used (not a fixed constant in disguise), and
// sub-second bases clamp up to one second.
func TestRetryAfterJitterBounds(t *testing.T) {
	const base = 8 * time.Second
	lo := time.Duration(float64(base) * (1 - RetryAfterJitterFrac))
	hi := time.Duration(float64(base) * (1 + RetryAfterJitterFrac))
	var min, max time.Duration = hi, lo
	for i := 0; i < 1000; i++ {
		d := JitterDuration(base, RetryAfterJitterFrac)
		if d < lo || d > hi {
			t.Fatalf("sample %d: %v outside [%v, %v]", i, d, lo, hi)
		}
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	// 1000 uniform samples span most of the band; staying inside the
	// middle half has probability 2^-1000-ish — a fixed constant fails.
	if min > lo+(hi-lo)/4 || max < hi-(hi-lo)/4 {
		t.Errorf("samples span [%v, %v]: jitter is not spreading over [%v, %v]", min, max, lo, hi)
	}
	if d := JitterDuration(200*time.Millisecond, RetryAfterJitterFrac); d < time.Second {
		t.Errorf("sub-second base jittered to %v, want >= 1s clamp", d)
	}
	if d := JitterDuration(0, RetryAfterJitterFrac); d != time.Second {
		t.Errorf("zero base jittered to %v, want 1s", d)
	}

	m := newTestManager(t, Options{Workers: 1})
	lo = time.Duration(float64(retryAfter) * (1 - RetryAfterJitterFrac))
	hi = time.Duration(float64(retryAfter) * (1 + RetryAfterJitterFrac))
	for i := 0; i < 100; i++ {
		if d := m.RetryAfterJittered(); d < lo || d > hi {
			t.Fatalf("RetryAfterJittered = %v outside [%v, %v]", d, lo, hi)
		}
	}
}

// TestSSEResumeLastEventID is the reconnect regression: a subscriber
// that drops mid-stream and reconnects with Last-Event-ID replays only
// the events it missed — no duplicates, no gap, same terminal event.
func TestSSEResumeLastEventID(t *testing.T) {
	ts, m := newTestServer(t, Options{Workers: 1})
	spec := testSpec()
	spec.Detach = true // the mid-stream disconnect must not abandon the job
	sub := postJSON(t, ts.URL+"/v1/runs", spec)
	v := decodeView(t, sub)

	// First connection: read a couple of frames, then drop.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/runs/"+v.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	first := readSSE(t, resp.Body, 2)
	cancel()
	resp.Body.Close()
	if len(first) < 2 {
		t.Fatalf("only %d frames before disconnect", len(first))
	}
	lastSeen := first[len(first)-1].id

	j, err := m.Job(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("job did not finish")
	}

	// Reconnect with Last-Event-ID: replay starts exactly after it.
	req2, _ := http.NewRequest("GET", ts.URL+"/v1/runs/"+v.ID+"/events", nil)
	req2.Header.Set("Last-Event-ID", strconv.Itoa(lastSeen))
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	resumed := readSSE(t, resp2.Body, 1<<20)
	if len(resumed) == 0 {
		t.Fatal("resumed stream replayed nothing")
	}
	if got := resumed[0].id; got != lastSeen+1 {
		t.Errorf("resume replay starts at seq %d, want %d (missed events only)", got, lastSeen+1)
	}
	for i, f := range resumed {
		if f.id != lastSeen+1+i {
			t.Fatalf("resumed frame %d has seq %d — gap or duplicate", i, f.id)
		}
	}
	if last := resumed[len(resumed)-1]; last.data.State != StateDone {
		t.Errorf("resumed stream ends with %+v, want done", last.data)
	}

	// A full replay (no header) still returns everything for comparison:
	// resumed history + seen prefix must equal the whole stream.
	full, err := http.Get(ts.URL + "/v1/runs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer full.Body.Close()
	all := readSSE(t, full.Body, 1<<20)
	if len(all) != lastSeen+1+len(resumed) {
		t.Errorf("full stream %d frames, seen %d + resumed %d", len(all), lastSeen+1, len(resumed))
	}

	// The query-parameter fallback behaves like the header.
	qp, err := http.Get(ts.URL + "/v1/runs/" + v.ID + "/events?last_event_id=" + strconv.Itoa(lastSeen))
	if err != nil {
		t.Fatal(err)
	}
	defer qp.Body.Close()
	qpFrames := readSSE(t, qp.Body, 1<<20)
	if len(qpFrames) != len(resumed) || qpFrames[0].id != lastSeen+1 {
		t.Errorf("query-param resume = %d frames from %d, want %d from %d",
			len(qpFrames), qpFrames[0].id, len(resumed), lastSeen+1)
	}
}

// TestJobLease covers the worker-mode lease contract end to end: a
// leased job survives while renewed, a lapsed lease cancels it, and
// the HTTP renew endpoint distinguishes leased/unleased/unknown.
func TestJobLease(t *testing.T) {
	ts, m := newTestServer(t, Options{Workers: 1})
	release := holdRuns(t, m, "test")

	// Occupy the only worker so the leased job stays observable in the
	// queue (a test-scale run would otherwise finish inside the lease).
	blocker := testSpec()
	jb, _, err := m.SubmitRun(blocker)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, jb, StateRunning, 10*time.Second)

	leased := testSpec()
	leased.Prefetcher = "nextline"
	leased.LeaseSeconds = 1
	jl, fresh, err := m.SubmitRun(leased)
	if err != nil || !fresh {
		t.Fatalf("leased submit = (fresh=%v, %v)", fresh, err)
	}

	// Renewals hold the job alive past its nominal TTL...
	for i := 0; i < 4; i++ {
		time.Sleep(400 * time.Millisecond)
		resp, err := http.Post(ts.URL+"/v1/runs/"+jl.ID+"/lease", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("renew %d status = %d, want 200", i, resp.StatusCode)
		}
	}
	if st := jl.State(); st.Terminal() {
		t.Fatalf("renewed job reached %q before its lease lapsed", st)
	}

	// ...and a lapsed lease cancels it.
	select {
	case <-jl.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("unrenewed leased job never expired")
	}
	if st := jl.State(); st != StateCanceled {
		t.Fatalf("lapsed-lease state = %q, want canceled", st)
	}
	if msg := jl.View(false).Error; msg != "lease expired" {
		t.Errorf("lapsed-lease error = %q", msg)
	}

	// Renewing an unleased job is a 409; an unknown address a 404.
	resp, err := http.Post(ts.URL+"/v1/runs/"+jb.ID+"/lease", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("unleased renew status = %d, want 409", resp.StatusCode)
	}
	r404, err := http.Post(ts.URL+"/v1/runs/rdeadbeef/lease", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	r404.Body.Close()
	if r404.StatusCode != http.StatusNotFound {
		t.Errorf("unknown renew status = %d, want 404", r404.StatusCode)
	}

	// Negative leases are rejected at submission.
	bad := testSpec()
	bad.LeaseSeconds = -1
	if _, _, err := m.SubmitRun(bad); err == nil {
		t.Error("negative lease_seconds accepted")
	}

	release()
	<-jb.Done()
}

// TestWorkerStatus checks the heartbeat responder payload.
func TestWorkerStatus(t *testing.T) {
	ts, m := newTestServer(t, Options{Workers: 1, WorkerID: "w-test", QueueDepth: 3})
	postJSON(t, ts.URL+"/v1/runs?wait=1", testSpec()).Body.Close()

	resp, err := http.Get(ts.URL + "/v1/worker/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st WorkerStatus
	if err := jsonDecode(resp.Body, &st); err != nil {
		t.Fatal(err)
	}
	if st.WorkerID != "w-test" || st.Draining || st.QueueCap != 3 {
		t.Errorf("status = %+v", st)
	}
	if st.JobsDone != 1 {
		t.Errorf("jobs_done = %d, want 1", st.JobsDone)
	}
	if st.SchemaVersion != sim.ExportSchemaVersion {
		t.Errorf("schema = %q", st.SchemaVersion)
	}

	// Draining flips in the status payload (the coordinator treats a
	// draining worker as leaving).
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Get(ts.URL + "/v1/worker/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var st2 WorkerStatus
	if err := jsonDecode(resp2.Body, &st2); err != nil {
		t.Fatal(err)
	}
	if !st2.Draining {
		t.Error("status after Shutdown not draining")
	}
}
