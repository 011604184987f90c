package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestDisabledFastPathAllocatesNothing is the zero-overhead contract: a
// nil recorder (telemetry off, the simulator's default) must not
// allocate on any instrumentation call.
func TestDisabledFastPathAllocatesNothing(t *testing.T) {
	var rec *Recorder
	var cnt *Counter
	var g *Gauge
	probe := func(uint64) float64 { return 1 }
	allocs := testing.AllocsPerRun(1000, func() {
		cnt.Inc()
		cnt.Add(3)
		_ = cnt.Load()
		g.Set(1.5)
		g.Add(2.5)
		_ = g.Load()
		rec.Probe("x", probe)
		rec.Sample(42)
		rec.Span("track", "name", 1, 2)
		rec.Instant("track", "name", 3)
		_ = rec.SampleInterval()
		_ = rec.Enabled()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocated %.1f objects per run, want 0", allocs)
	}
}

// TestGaugeAdd pins delta-gauge semantics: concurrent +1/-1 pairs net
// to zero (Set would lose updates under the same interleaving).
func TestGaugeAdd(t *testing.T) {
	g := NewRegistry().Gauge("level")
	g.Set(10)
	g.Add(2.5)
	g.Add(-0.5)
	if got := g.Load(); got != 12 {
		t.Fatalf("Load = %v after 10+2.5-0.5, want 12", got)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := g.Load(); got != 12 {
		t.Fatalf("Load = %v after balanced concurrent Adds, want 12", got)
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var reg *Registry
	if c := reg.Counter("a"); c != nil {
		t.Error("nil registry returned a counter")
	}
	if g := reg.Gauge("a"); g != nil {
		t.Error("nil registry returned a gauge")
	}
	reg.Probe("a", func(uint64) float64 { return 0 }) // must not panic
	var rec *Recorder
	if rec.Counter("a") != nil || rec.Gauge("a") != nil {
		t.Error("nil recorder returned instruments")
	}
	if rec.Sampler() != nil || rec.Tracer() != nil {
		t.Error("nil recorder exposed collectors")
	}
	if err := rec.WriteMetricsJSONL(&bytes.Buffer{}); err != nil {
		t.Errorf("nil recorder write: %v", err)
	}
	if err := rec.WriteMetricsFile("/nonexistent/should-not-matter"); err != nil {
		t.Errorf("nil recorder file write: %v", err)
	}
}

// TestSamplerSeriesLength drives a known cycle count through the
// System-side cadence (sample every interval, plus one final off-grid
// sample) and checks the row count and cycle stamps.
func TestSamplerSeriesLength(t *testing.T) {
	const interval, cycles = 100, 1050
	rec := New(Config{SampleInterval: interval})
	var polled int
	rec.Probe("p", func(uint64) float64 { polled++; return float64(polled) })

	for cyc := uint64(1); cyc <= cycles; cyc++ {
		if cyc%rec.SampleInterval() == 0 {
			rec.Sample(cyc)
		}
	}
	rec.Sample(cycles) // the simulator's final post-drain sample

	want := cycles/interval + 1 // 10 on-grid + 1 final
	if got := rec.Sampler().Len(); got != want {
		t.Fatalf("sampler retained %d rows for %d cycles at interval %d, want %d",
			got, cycles, interval, want)
	}
	if polled != want {
		t.Fatalf("probe polled %d times, want %d", polled, want)
	}

	var buf bytes.Buffer
	if err := rec.WriteMetricsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != want {
		t.Fatalf("JSONL has %d lines, want %d", len(lines), want)
	}
	// Every line is a standalone JSON object with cycle and the column.
	var first struct {
		Cycle uint64  `json:"cycle"`
		P     float64 `json:"p"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 is not valid JSON: %v", err)
	}
	if first.Cycle != interval || first.P != 1 {
		t.Errorf("first row = {cycle:%d p:%v}, want {cycle:%d p:1}", first.Cycle, first.P, interval)
	}
}

func TestSamplerRingDropsOldest(t *testing.T) {
	rec := New(Config{SampleInterval: 1})
	rec.Probe("p", func(cyc uint64) float64 { return float64(cyc) })
	for cyc := uint64(1); cyc <= ringCap+6; cyc++ {
		rec.Sample(cyc)
	}
	if got := rec.Sampler().Len(); got != ringCap {
		t.Fatalf("ring retained %d rows, want %d", got, ringCap)
	}
	if got := rec.Sampler().Dropped(); got != 6 {
		t.Fatalf("ring dropped %d rows, want 6", got)
	}
	var buf bytes.Buffer
	if err := rec.WriteMetricsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	wantCycle := uint64(7) // oldest surviving row
	for sc.Scan() {
		var row struct {
			Cycle uint64 `json:"cycle"`
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatal(err)
		}
		if row.Cycle != wantCycle {
			t.Fatalf("row cycle %d, want %d (oldest-first export)", row.Cycle, wantCycle)
		}
		wantCycle++
	}
}

func TestSampleRowIncludesCountersAndGauges(t *testing.T) {
	rec := New(Config{SampleInterval: 1})
	rec.Counter("hits").Add(7)
	rec.Gauge("depth").Set(3.5)
	rec.Sample(10)
	var buf bytes.Buffer
	if err := rec.WriteMetricsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var row map[string]float64
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &row); err != nil {
		t.Fatal(err)
	}
	if row["hits"] != 7 || row["depth"] != 3.5 {
		t.Errorf("row = %v, want hits=7 depth=3.5", row)
	}
}

// TestTraceRoundTrip checks the exported trace parses with
// encoding/json and that every track's B/E events pair up with
// non-decreasing timestamps.
func TestTraceRoundTrip(t *testing.T) {
	rec := New(Config{})
	rec.Span("iterations", "iter 0", 0, 100)
	rec.Span("iterations", "iter 1", 100, 250)
	rec.Span("rnr.c0", "record", 10, 90)
	rec.Span("rnr.c0", "replay", 90, 240)
	rec.Instant("rnr.c0", "seq-overflow", 42)
	rec.Span("dram", "write-drain", 55, 77)

	var buf bytes.Buffer
	if err := rec.WriteTraceJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var file TraceFile
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	type open struct {
		name string
		ts   uint64
	}
	stacks := make(map[int][]open)
	threadNames := make(map[int]string)
	spans := 0
	for _, ev := range file.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				threadNames[ev.TID] = ev.Args["name"].(string)
			}
		case "B":
			stacks[ev.TID] = append(stacks[ev.TID], open{ev.Name, ev.TS})
		case "E":
			st := stacks[ev.TID]
			if len(st) == 0 {
				t.Fatalf("E %q on tid %d without matching B", ev.Name, ev.TID)
			}
			top := st[len(st)-1]
			stacks[ev.TID] = st[:len(st)-1]
			if top.name != ev.Name {
				t.Fatalf("E %q closes B %q", ev.Name, top.name)
			}
			if ev.TS < top.ts {
				t.Fatalf("span %q ends at %d before it begins at %d", ev.Name, ev.TS, top.ts)
			}
			spans++
		case "i":
			// fine
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	for tid, st := range stacks {
		if len(st) != 0 {
			t.Errorf("tid %d has %d unclosed spans", tid, len(st))
		}
	}
	if spans != 5 {
		t.Errorf("trace has %d spans, want 5", spans)
	}
	// Tracks must be named.
	wantTracks := map[string]bool{"iterations": true, "rnr.c0": true, "dram": true}
	for _, name := range threadNames {
		delete(wantTracks, name)
	}
	if len(wantTracks) != 0 {
		t.Errorf("missing thread_name metadata for tracks: %v", wantTracks)
	}
}

func TestTracerCapDropsWholeSpans(t *testing.T) {
	rec := New(Config{})
	if rec.Tracer().cap != traceCap {
		t.Fatalf("recorder's tracer keeps %d events, want %d", rec.Tracer().cap, traceCap)
	}
	// Filling the real 2^20-event cap costs ~100 MB; a 4-event tracer
	// exercises the same drop rule.
	rec.tracer = newTracer(4)
	rec.Span("t", "a", 0, 1)
	rec.Span("t", "b", 1, 2)
	rec.Span("t", "c", 2, 3) // over cap: dropped as a pair
	if got := rec.Tracer().Len(); got != 4 {
		t.Fatalf("tracer kept %d events, want 4", got)
	}
	if got := rec.Tracer().Dropped(); got != 2 {
		t.Fatalf("tracer dropped %d events, want 2", got)
	}
	var buf bytes.Buffer
	if err := rec.WriteTraceJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var file TraceFile
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	b, e := 0, 0
	for _, ev := range file.TraceEvents {
		switch ev.Ph {
		case "B":
			b++
		case "E":
			e++
		}
	}
	if b != e {
		t.Errorf("unbalanced trace after cap: %d B vs %d E", b, e)
	}
}

// TestConcurrentInstruments exercises the registry, sampler and tracer
// from many goroutines; run under -race this is the data-race guard.
func TestConcurrentInstruments(t *testing.T) {
	rec := New(Config{SampleInterval: 1})
	rec.Probe("p", func(uint64) float64 { return 1 })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := rec.Counter("shared")
			for i := 0; i < 500; i++ {
				c.Inc()
				rec.Gauge("g").Set(float64(i))
				rec.Span("t", "s", uint64(i), uint64(i+1))
				rec.Instant("t", "i", uint64(i))
				rec.Sample(uint64(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	if got := rec.Counter("shared").Load(); got != 8*500 {
		t.Errorf("shared counter = %d, want %d", got, 8*500)
	}
	var buf bytes.Buffer
	if err := rec.WriteTraceJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteMetricsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestProfileHelpersNoopOnEmptyPath(t *testing.T) {
	stop, err := StartCPUProfile("")
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if err := WriteHeapProfile(""); err != nil {
		t.Fatal(err)
	}
}

func TestProfileHelpersWriteFiles(t *testing.T) {
	dir := t.TempDir()
	stop, err := StartCPUProfile(dir + "/cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if err := WriteHeapProfile(dir + "/heap.pprof"); err != nil {
		t.Fatal(err)
	}
}
