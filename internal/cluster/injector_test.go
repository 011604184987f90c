package cluster

// The chaos tests' in-process fault-injection harness: an http.Handler
// middleware wrapped around a worker that kills, hangs, slows or
// corrupts it at a deterministic point in its request stream. Faults
// trigger by counting job submissions (POST /v1/runs) — never
// heartbeats, whose cadence depends on wall-clock timing — so a seeded
// fault plan replays the identical failure schedule run after run, and
// the chaos differential test can assert the cluster's exports are
// byte-identical to a healthy single daemon's.

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"time"
)

// Fault kinds.
const (
	// faultKill drops every in-flight connection after Delay and aborts all
	// subsequent requests instantly — the worker is gone. From the
	// coordinator this is indistinguishable from a SIGKILL'd process:
	// in-flight dispatches see dropped connections, heartbeats start
	// missing, and the health machine walks the worker to dead.
	faultKill = "kill"
	// faultHang stalls the triggering request (and every later one) until
	// the client's context expires — the pathological peer that
	// accepts connections but never answers. Exercises dispatch
	// timeouts rather than connection errors.
	faultHang = "hang"
	// faultSlow delays every request from the trigger on by Delay, then
	// serves it normally. Exercises timeout margins and retry jitter
	// without removing capacity.
	faultSlow = "slow"
	// faultCorrupt rewrites the state_hash in the triggering response body —
	// the silent-corruption stand-in (bad RAM, version skew) that the
	// coordinator's replicate-check exists to catch.
	faultCorrupt = "corrupt"
)

// A fault schedules one failure on one worker.
type fault struct {
	// Worker names the target (matched against the injector's worker ID).
	Worker string
	// Kind is faultKill, faultHang, faultSlow or faultCorrupt.
	Kind string
	// After is the number of job submissions (POST /v1/runs) the worker
	// serves cleanly before the fault arms; the (After+1)th submission
	// triggers it. Counting submissions rather than all requests keeps
	// the trigger deterministic under heartbeat timing noise.
	After int
	// Delay is the pre-abort stall for faultKill (letting the job start
	// before the process "dies" — the interesting mid-flight window)
	// and the added latency for faultSlow.
	Delay time.Duration
}

// injector wraps one worker's handler and applies its faults.
// An injector with no faults is a transparent proxy.
type injector struct {
	worker string

	mu      sync.Mutex
	faults  []fault
	subs    int  // job submissions seen
	killed  bool // sticky: worker is "gone"
	slowBy  time.Duration
	hung    bool
	nextReq uint64
	// inflight tracks every active request's context cancel, so a kill
	// takes concurrent requests down with it — a real SIGKILL does not
	// spare the jobs that happened to arrive before the trigger.
	inflight map[uint64]context.CancelFunc
}

// newInjector returns a fault injector for the named worker with no
// fault armed.
func newInjector(worker string) *injector {
	return &injector{worker: worker, inflight: make(map[uint64]context.CancelFunc)}
}

// arm schedules a fault (tests often need to learn a job's ring owner
// before deciding which worker to break).
// Faults addressed to other workers are ignored. After counts from the
// injector's lifetime submission total, not from the arm call.
func (inj *injector) arm(f fault) {
	if f.Worker != inj.worker {
		return
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.faults = append(inj.faults, f)
}

// killedNow reports whether the worker is currently down.
func (inj *injector) killedNow() bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.killed
}

// stateHashPattern matches the state-hash field in a run result
// payload; faultCorrupt flips it to an obviously-wrong value of the same
// shape.
var stateHashPattern = regexp.MustCompile(`"state_hash":\s*"[0-9a-f]+"`)

// wrap returns next behind the fault layer.
func (inj *injector) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithCancel(r.Context())
		defer cancel()
		r = r.WithContext(ctx)
		id := inj.track(cancel)
		defer inj.untrack(id)

		// Drain the body up front (replaying it for the real handler):
		// net/http only watches for client disconnects once the request
		// body has hit EOF, and a faulted handler that stalls without
		// reading would otherwise pin the connection past the client's
		// timeout — a leak, not a simulated crash.
		if r.Body != nil {
			data, err := io.ReadAll(r.Body)
			r.Body.Close()
			if err != nil {
				abort()
			}
			r.Body = io.NopCloser(bytes.NewReader(data))
		}

		isSubmit := r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/runs")
		inj.mu.Lock()
		if isSubmit {
			inj.subs++
		}
		var trig *fault
		if isSubmit {
			for i := range inj.faults {
				f := &inj.faults[i]
				if f.After+1 == inj.subs {
					trig = f
					break
				}
			}
		}
		killed, hung, slowBy := inj.killed, inj.hung, inj.slowBy
		inj.mu.Unlock()

		if killed {
			abort()
		}
		if hung {
			stall(r)
		}
		if slowBy > 0 {
			sleep(r, slowBy)
		}
		if trig == nil {
			next.ServeHTTP(w, r)
			if inj.killedNow() {
				// The process died while this request was in flight;
				// its response never made it out.
				abort()
			}
			return
		}

		switch trig.Kind {
		case faultKill:
			// Let the job start and run for Delay before the process
			// "dies": the dispatch is lost mid-run, not rejected at
			// the door, and every concurrent request dies with it.
			go func() {
				time.Sleep(trig.Delay)
				inj.kill()
			}()
			next.ServeHTTP(w, r)
			abort()
		case faultHang:
			inj.mu.Lock()
			inj.hung = true
			inj.mu.Unlock()
			stall(r)
		case faultSlow:
			inj.mu.Lock()
			inj.slowBy = trig.Delay
			inj.mu.Unlock()
			sleep(r, trig.Delay)
			next.ServeHTTP(w, r)
		case faultCorrupt:
			buf := &bufferedResponse{header: make(http.Header), status: http.StatusOK}
			next.ServeHTTP(buf, r)
			body := stateHashPattern.ReplaceAll(buf.body.Bytes(),
				[]byte(`"state_hash":"deadbeefdeadbeef"`))
			for k, vs := range buf.header {
				if strings.EqualFold(k, "Content-Length") {
					continue
				}
				w.Header()[k] = vs
			}
			w.WriteHeader(buf.status)
			w.Write(body)
		default:
			next.ServeHTTP(w, r)
		}
	})
}

func (inj *injector) track(cancel context.CancelFunc) uint64 {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.nextReq++
	inj.inflight[inj.nextReq] = cancel
	return inj.nextReq
}

func (inj *injector) untrack(id uint64) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	delete(inj.inflight, id)
}

// kill marks the worker dead and cancels every in-flight request's
// context. The serve layer watches request contexts, so cancellation
// abandons running jobs mid-simulation exactly as a dying process
// would; each unwinding handler then drops its connection.
func (inj *injector) kill() {
	inj.mu.Lock()
	inj.killed = true
	cancels := make([]context.CancelFunc, 0, len(inj.inflight))
	for _, c := range inj.inflight {
		cancels = append(cancels, c)
	}
	inj.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// abort panics with the sentinel net/http recognises as "drop the
// connection without a reply" — the closest in-process stand-in for a
// SIGKILL'd peer.
func abort() {
	panic(http.ErrAbortHandler)
}

// stall blocks until the requester gives up (or the process dies).
func stall(r *http.Request) {
	<-r.Context().Done()
	abort()
}

// sleep waits d or until the requester gives up (then aborts).
func sleep(r *http.Request, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-r.Context().Done():
		abort()
	}
}

// bufferedResponse captures a handler's response for rewriting.
type bufferedResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header { return b.header }
func (b *bufferedResponse) WriteHeader(code int) {
	b.status = code
}
func (b *bufferedResponse) Write(p []byte) (int, error) {
	return b.body.Write(p)
}

// faultPlan generates a seeded random fault schedule over n workers: one
// fault per worker drawn from kinds, armed within the first maxAfter
// submissions. The same seed always yields the same plan — the chaos
// differential's whole premise.
func faultPlan(seed int64, workers []string, maxAfter int, kinds ...string) []fault {
	if len(kinds) == 0 {
		kinds = []string{faultKill, faultHang, faultSlow}
	}
	if maxAfter < 1 {
		maxAfter = 1
	}
	rng := rand.New(rand.NewSource(seed))
	faults := make([]fault, 0, len(workers))
	for _, w := range workers {
		faults = append(faults, fault{
			Worker: w,
			Kind:   kinds[rng.Intn(len(kinds))],
			After:  rng.Intn(maxAfter),
			Delay:  time.Duration(1+rng.Intn(20)) * time.Millisecond,
		})
	}
	return faults
}
