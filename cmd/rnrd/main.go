// Command rnrd is the experiment-serving daemon: a long-lived HTTP
// front-end over the parallel evaluation engine. It accepts simulation
// and experiment jobs, coalesces duplicates onto a content-addressed
// result cache, streams progress over SSE and drains gracefully on
// SIGTERM.
//
// Usage:
//
//	rnrd [-addr :8080] [-scale bench] [-workers N] [-queue 64]
//	     [-parallelism N] [-job-timeout 0] [-drain-timeout 30s]
//	     [-audit] [-obs]
//
// Cluster modes:
//
//	rnrd -coordinator [-heartbeat-interval 1s] [-replicate-check 0.1]
//	    runs the scale-out coordinator instead of a worker: jobs are
//	    routed to registered workers by consistent hashing, with health
//	    tracking, retries and sampled cross-worker hash verification.
//
//	rnrd -join http://coordinator:8080 [-advertise http://me:8081]
//	     [-worker-id w1]
//	    runs a normal worker that registers itself with a coordinator
//	    on startup and answers its heartbeats on /v1/worker/status.
//
// See DESIGN.md ("Serving layer", "Cluster layer") for the API.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rnrsim/internal/apps"
	"rnrsim/internal/audit"
	"rnrsim/internal/cluster"
	"rnrsim/internal/obs"
	"rnrsim/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		scale        = flag.String("scale", "bench", "default input scale for submissions that omit one (test|bench|large)")
		workers      = flag.Int("workers", 0, "concurrent jobs (0 = GOMAXPROCS)")
		queueDepth   = flag.Int("queue", 64, "bounded job-queue depth (full queue answers 429)")
		parallelism  = flag.Int("parallelism", 0, "simulations run in parallel inside one experiment job (0 = GOMAXPROCS)")
		jobTimeout   = flag.Duration("job-timeout", 0, "per-job lifetime cap, queue wait included (0 = none)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs before cancelling them")
		quiet        = flag.Bool("quiet", false, "suppress per-job logging")
		auditOn      = flag.Bool("audit", false,
			"attach the correctness auditor to every served simulation: periodic invariant sweeps, any violation fails the job instead of caching a corrupt result")
		auditInt = flag.Uint64("audit-interval", audit.DefaultInterval, "cycles between invariant sweeps (with -audit)")
		obsOn    = flag.Bool("obs", false,
			"attach the prefetch-lifecycle flight recorder to every served simulation: results carry lifecycle/histogram sections and /metrics exposes obs_* histograms")

		coordinator = flag.Bool("coordinator", false,
			"run as cluster coordinator: route jobs to joined workers by consistent hashing instead of simulating locally")
		join = flag.String("join", "",
			"coordinator base URL to register with on startup (worker mode)")
		advertise = flag.String("advertise", "",
			"base URL the coordinator should dial this worker at (default http://<listen-addr>)")
		workerID = flag.String("worker-id", "",
			"stable worker identity for registration and routing (default the advertise address)")
		heartbeatInterval = flag.Duration("heartbeat-interval", time.Second,
			"coordinator health-probe period (with -coordinator)")
		replicateCheck = flag.Float64("replicate-check", 0,
			"fraction of dispatches duplicated to a second worker for state-hash cross-checking, 0..1 (with -coordinator)")
		dispatchTimeout = flag.Duration("dispatch-timeout", 2*time.Minute,
			"per-attempt dispatch cap (with -coordinator)")
	)
	flag.Parse()
	var auditCfg *audit.Config
	if *auditOn {
		auditCfg = &audit.Config{Interval: *auditInt}
	}
	var obsCfg *obs.Config
	if *obsOn {
		obsCfg = &obs.Config{}
	}
	var err error
	if *coordinator {
		err = runCoordinator(*addr, *scale, *heartbeatInterval, *replicateCheck,
			*dispatchTimeout, *drainTimeout, *quiet)
	} else {
		err = run(*addr, *scale, *workers, *queueDepth, *parallelism,
			*jobTimeout, *drainTimeout, *quiet, auditCfg, obsCfg,
			*join, *advertise, *workerID)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rnrd:", err)
		os.Exit(1)
	}
}

func run(addr, scale string, workers, queueDepth, parallelism int,
	jobTimeout, drainTimeout time.Duration, quiet bool,
	auditCfg *audit.Config, obsCfg *obs.Config,
	join, advertise, workerID string) error {
	if _, ok := apps.ParseScale(scale); !ok {
		return fmt.Errorf("unknown scale %q (have %v)", scale, apps.ScaleNames)
	}
	logf := log.Printf
	if quiet {
		logf = func(string, ...any) {}
	}
	mgr := serve.NewManager(serve.Options{
		DefaultScale: scale,
		QueueDepth:   queueDepth,
		Workers:      workers,
		JobTimeout:   jobTimeout,
		Parallelism:  parallelism,
		Audit:        auditCfg,
		Obs:          obsCfg,
		WorkerID:     workerID,
		Logf:         logf,
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: serve.NewServer(mgr)}
	log.Printf("rnrd listening on http://%s (default scale %s)", ln.Addr(), scale)

	if join != "" {
		if advertise == "" {
			advertise = "http://" + ln.Addr().String()
		}
		if workerID == "" {
			workerID = advertise
		}
		if err := registerWithCoordinator(join, workerID, advertise); err != nil {
			ln.Close()
			return fmt.Errorf("joining %s: %w", join, err)
		}
		log.Printf("rnrd: joined cluster at %s as %s (%s)", join, workerID, advertise)
	}

	ctx, stop := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Drain order matters: first stop accepting jobs and let in-flight
	// work finish (watchers on open SSE streams still receive their
	// terminal events), then close the HTTP server. A draining worker
	// reports Draining over /v1/worker/status, so the coordinator stops
	// routing to it before the listener goes away.
	log.Printf("rnrd: signal received, draining (timeout %s)", drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := mgr.Shutdown(drainCtx); err != nil {
		log.Printf("rnrd: drain incomplete, jobs cancelled: %v", err)
	}
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	if err := srv.Shutdown(httpCtx); err != nil {
		srv.Close()
	}
	log.Printf("rnrd: shutdown complete")
	return nil
}

// registerWithCoordinator announces this worker to the coordinator,
// retrying briefly so worker and coordinator processes can start in
// either order.
func registerWithCoordinator(base, id, advertise string) error {
	body, _ := json.Marshal(struct {
		ID  string `json:"id"`
		URL string `json:"url"`
	}{id, advertise})
	var lastErr error
	for attempt := 0; attempt < 10; attempt++ {
		if attempt > 0 {
			time.Sleep(500 * time.Millisecond)
		}
		resp, err := http.Post(base+"/v1/cluster/join", "application/json", bytes.NewReader(body))
		if err != nil {
			lastErr = err
			continue
		}
		payload, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
		lastErr = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(payload))
		if resp.StatusCode == http.StatusBadRequest {
			return lastErr // not transient: bad id/url
		}
	}
	return lastErr
}

// runCoordinator serves the cluster front-end: no local simulation,
// just routing, health and sweeps.
func runCoordinator(addr, scale string, heartbeatInterval time.Duration,
	replicateCheck float64, dispatchTimeout, drainTimeout time.Duration, quiet bool) error {
	if _, ok := apps.ParseScale(scale); !ok {
		return fmt.Errorf("unknown scale %q (have %v)", scale, apps.ScaleNames)
	}
	if replicateCheck < 0 || replicateCheck > 1 {
		return fmt.Errorf("replicate-check %v outside [0,1]", replicateCheck)
	}
	logf := log.Printf
	if quiet {
		logf = func(string, ...any) {}
	}
	coord := cluster.NewCoordinator(cluster.Config{
		DefaultScale:      scale,
		HeartbeatInterval: heartbeatInterval,
		ReplicateCheck:    replicateCheck,
		DispatchTimeout:   dispatchTimeout,
		Logf:              logf,
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		coord.Close()
		return err
	}
	srv := &http.Server{Handler: cluster.NewServer(coord)}
	log.Printf("rnrd coordinator listening on http://%s (default scale %s)", ln.Addr(), scale)

	ctx, stop := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		coord.Close()
		return err
	case <-ctx.Done():
	}

	log.Printf("rnrd coordinator: signal received, shutting down (timeout %s)", drainTimeout)
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), drainTimeout)
	defer cancelHTTP()
	if err := srv.Shutdown(httpCtx); err != nil {
		srv.Close()
	}
	coord.Close()
	log.Printf("rnrd coordinator: shutdown complete")
	return nil
}
