package telemetry

// Concurrency audit of the telemetry instruments (run these under
// `go test -race`). The parallel experiment engine (internal/bench)
// simulates several Systems at once, and every System increments the
// process-wide telemetry.Default counters (e.g. the sim.accuracy_clamped
// clamp counters in sim/result.go), so the instruments must tolerate
// concurrent writers with no coordination:
//
//   - Counter / Gauge: lock-free sync/atomic — Inc/Add/Load race-free
//     and exact (no lost updates).
//   - Registry: mutexed maps — first-use registration of the same name
//     from many goroutines yields one shared instrument.
//   - Recorder / Sampler / Tracer: mutexed ring buffers — Sample and
//     Span may interleave with probe registration and exports.
//
// Each test below pins one of those properties.

import (
	"fmt"
	"io"
	"sync"
	"testing"
)

// TestCounterConcurrentExact asserts no increments are lost under
// contention: 16 writers x 1000 Incs + 16 writers x 1000 triple Incs
// must land exactly, with concurrent readers observing monotonic progress.
func TestCounterConcurrentExact(t *testing.T) {
	c := NewRegistry().Counter("c")
	const writers, each = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
				c.Inc()
				c.Inc()
			}
		}()
	}
	// Concurrent readers: -race flags any unsynchronised access.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64
		for i := 0; i < 1000; i++ {
			v := c.Load()
			if v < last {
				t.Errorf("counter went backwards: %d -> %d", last, v)
				return
			}
			last = v
		}
	}()
	wg.Wait()
	if got, want := c.Load(), uint64(writers*each*4); got != want {
		t.Fatalf("lost updates: counter = %d, want %d", got, want)
	}
}

// TestGaugeConcurrent asserts Add/Load race-freedom: writer w adds w+1
// and takes it away again, so every read is a sum of distinct values in
// 1..8, never a torn mix.
func TestGaugeConcurrent(t *testing.T) {
	g := NewRegistry().Gauge("g")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(2)
		v := float64(w + 1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Add(v)
				g.Add(-v)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				got := g.Load()
				if got < 0 || got > 36 || got != float64(int(got)) {
					t.Errorf("torn gauge read: %v", got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRegistryConcurrentFirstUse asserts the check-then-insert in
// Registry.Counter/Gauge is atomic: 32 goroutines racing on the same
// name all get the same instrument, and their increments merge.
func TestRegistryConcurrentFirstUse(t *testing.T) {
	r := NewRegistry()
	const callers = 32
	counters := make([]*Counter, callers)
	gauges := make([]*Gauge, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			counters[i] = r.Counter("shared")
			counters[i].Inc()
			gauges[i] = r.Gauge("shared")
			// And some unshared names, racing map growth.
			r.Counter(fmt.Sprintf("own-%d", i)).Inc()
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if counters[i] != counters[0] {
			t.Fatalf("caller %d got a distinct *Counter for the same name", i)
		}
		if gauges[i] != gauges[0] {
			t.Fatalf("caller %d got a distinct *Gauge for the same name", i)
		}
	}
	if got := counters[0].Load(); got != callers {
		t.Fatalf("shared counter = %d, want %d", got, callers)
	}
}

// TestDefaultRegistryConcurrent pins the pattern sim/result.go relies
// on: many concurrent simulations bumping process-wide clamp counters
// through telemetry.Default with no coordination.
func TestDefaultRegistryConcurrent(t *testing.T) {
	const writers, each = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				Default.Counter("test.race.clamped").Inc()
			}
		}()
	}
	wg.Wait()
	if got := Default.Counter("test.race.clamped").Load(); got != writers*each {
		t.Fatalf("Default counter = %d, want %d", got, writers*each)
	}
}

// TestRecorderConcurrentUse exercises the full Recorder surface from
// many goroutines at once: probe registration racing Sample, and Span on
// two tracks racing the exports. Only -race correctness is asserted — the
// sampled contents are unordered by construction.
func TestRecorderConcurrentUse(t *testing.T) {
	rec := New(Config{SampleInterval: 1})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(4)
		w := w
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rec.Probe(fmt.Sprintf("p%d-%d", w, i), func(cycle uint64) float64 { return float64(cycle) })
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rec.Sample(uint64(i))
				rec.reg.Counter("events").Inc()
				rec.reg.Gauge("level").Add(1)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rec.Span("track", "work", uint64(i), uint64(i+10))
				rec.Span("marks", "mark", uint64(i), uint64(i))
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := rec.WriteMetricsJSONL(io.Discard); err != nil {
					t.Errorf("WriteMetricsJSONL: %v", err)
					return
				}
				if err := rec.WriteTraceJSON(io.Discard); err != nil {
					t.Errorf("WriteTraceJSON: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(rec.sampler.rows) == 0 {
		t.Fatal("no samples recorded")
	}
	if len(rec.tracer.events) == 0 {
		t.Fatal("no trace events recorded")
	}
}
