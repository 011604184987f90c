package sim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"rnrsim/internal/cache"
	"rnrsim/internal/telemetry"
)

// TestInstrumentedRunExportsSeries is the acceptance check for the
// metrics pipeline: an instrumented RnR run must produce a valid JSONL
// series that includes the rnr.replay_distance column, with cycle stamps
// on the sample grid.
func TestInstrumentedRunExportsSeries(t *testing.T) {
	app := testApp(t)
	cfg := testConfig().WithPrefetcher(PFRnR)
	const interval = 1000
	rec := telemetry.New(telemetry.Config{SampleInterval: interval})
	cfg.Telemetry = rec
	r := runOne(t, cfg, app)

	var buf bytes.Buffer
	if err := rec.WriteMetricsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var rows int
	var sawReplayDistance, sawNonZeroDistance bool
	var lastCycle uint64
	for sc.Scan() {
		var row map[string]float64
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("row %d is not valid JSON: %v", rows, err)
		}
		cyc := uint64(row["cycle"])
		if cyc <= lastCycle {
			t.Fatalf("row %d cycle %d not increasing (prev %d)", rows, cyc, lastCycle)
		}
		lastCycle = cyc
		if d, ok := row["rnr.replay_distance"]; ok {
			sawReplayDistance = true
			if d != 0 {
				sawNonZeroDistance = true
			}
		}
		for _, col := range []string{"sim.ipc", "l2.mpki", "dram.row_hit_rate"} {
			if _, ok := row[col]; !ok {
				t.Fatalf("row %d missing column %q", rows, col)
			}
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if rows == 0 {
		t.Fatal("instrumented run produced an empty series")
	}
	if !sawReplayDistance {
		t.Error("series is missing the rnr.replay_distance column")
	}
	if !sawNonZeroDistance {
		t.Error("rnr.replay_distance never went non-zero during an RnR run")
	}
	if lastCycle != r.Cycles {
		t.Errorf("final sample at cycle %d, run ended at %d", lastCycle, r.Cycles)
	}
	// All but the final sample sit on the interval grid.
	_ = interval
}

// TestInstrumentedRunTraceMatchesIterations is the acceptance check for
// the tracer: the exported Chrome trace must contain one span per
// iteration on the "iterations" track, and each span's end timestamp
// must equal the Result's recorded barrier cycle.
func TestInstrumentedRunTraceMatchesIterations(t *testing.T) {
	app := testApp(t)
	cfg := testConfig().WithPrefetcher(PFRnR)
	rec := telemetry.New(telemetry.Config{})
	cfg.Telemetry = rec
	r := runOne(t, cfg, app)

	var buf bytes.Buffer
	if err := rec.WriteTraceJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var file telemetry.TraceFile
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	// Find the iterations track's tid, then collect its span ends.
	iterTID := -1
	for _, ev := range file.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" && ev.Args["name"] == "iterations" {
			iterTID = ev.TID
		}
	}
	if iterTID < 0 {
		t.Fatal("trace has no iterations track")
	}
	var ends []uint64
	var names []string
	for _, ev := range file.TraceEvents {
		if ev.TID != iterTID {
			continue
		}
		switch ev.Ph {
		case "B":
			names = append(names, ev.Name)
		case "E":
			ends = append(ends, ev.TS)
		}
	}
	if len(ends) != len(r.IterEnd) {
		t.Fatalf("trace has %d iteration spans, result recorded %d barriers",
			len(ends), len(r.IterEnd))
	}
	for i, end := range ends {
		if end != r.IterEnd[i] {
			t.Errorf("iteration %d span ends at %d, Result.IterEnd = %d",
				i, end, r.IterEnd[i])
		}
		if want := "iter " + string(rune('0'+i)); names[i] != want {
			t.Errorf("iteration %d span named %q, want %q", i, names[i], want)
		}
	}

	// The RnR engines must have produced record/replay spans.
	var rnrSpans int
	for _, ev := range file.TraceEvents {
		if ev.Ph == "B" && (ev.Name == "record" || ev.Name == "replay") {
			rnrSpans++
		}
	}
	if rnrSpans == 0 {
		t.Error("trace has no RnR record/replay spans")
	}
}

// TestUninstrumentedRunHasNilRecorder guards the disabled default: no
// Config.Telemetry means the System carries a nil recorder end to end.
func TestUninstrumentedRunHasNilRecorder(t *testing.T) {
	app := testApp(t)
	sys, err := New(testConfig(), app)
	if err != nil {
		t.Fatal(err)
	}
	if sys.tel != nil {
		t.Error("uninstrumented system carries a non-nil recorder")
	}
}

// TestAccuracyClampCounted is the regression test for the silent-clamp
// fix: an accuracy above 1 must still be clamped, but the clamp must be
// visible in the telemetry.Default counter.
func TestAccuracyClampCounted(t *testing.T) {
	r := &Result{
		L2: cache.Stats{
			PrefetchFillsDone: 10,
			PrefetchUseful:    12, // useful > issued: accounting drift
		},
	}
	before := telemetry.Default.Counter(CounterAccuracyClamped).Load()
	if acc := r.Accuracy(); acc != 1 {
		t.Fatalf("accuracy = %v, want clamped to 1", acc)
	}
	after := telemetry.Default.Counter(CounterAccuracyClamped).Load()
	if after != before+1 {
		t.Errorf("clamp counter went %d -> %d, want +1", before, after)
	}

	// An in-range accuracy must not touch the counter.
	r.L2.PrefetchUseful = 5
	if acc := r.Accuracy(); acc != 0.5 {
		t.Fatalf("accuracy = %v, want 0.5", acc)
	}
	if got := telemetry.Default.Counter(CounterAccuracyClamped).Load(); got != after {
		t.Errorf("clamp counter moved on an unclamped call: %d -> %d", after, got)
	}
}

// TestCoverageClampCounted is the same regression guard for Coverage.
func TestCoverageClampCounted(t *testing.T) {
	r := &Result{L2: cache.Stats{PrefetchUseful: 20}}
	base := &Result{L2: cache.Stats{DemandMisses: 10}}
	before := telemetry.Default.Counter(CounterCoverageClamped).Load()
	if cov := r.Coverage(base); cov != 1 {
		t.Fatalf("coverage = %v, want clamped to 1", cov)
	}
	if got := telemetry.Default.Counter(CounterCoverageClamped).Load(); got != before+1 {
		t.Errorf("clamp counter went %d -> %d, want +1", before, got)
	}
}

// TestResultWriteJSONRoundTrip checks the machine-readable export
// parses back and preserves the headline numbers.
func TestResultWriteJSONRoundTrip(t *testing.T) {
	app := testApp(t)
	r := runOne(t, testConfig().WithPrefetcher(PFRnR), app)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got ResultJSON
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if got.Cycles != r.Cycles || got.Instructions != r.Instructions {
		t.Errorf("round trip lost counters: %+v", got)
	}
	if got.Prefetcher != string(PFRnR) || got.App != r.App {
		t.Errorf("round trip lost identity: %+v", got)
	}
	if got.IPC != r.IPC() || got.Accuracy != r.Accuracy() {
		t.Errorf("round trip lost derived metrics: %+v", got)
	}
	if len(got.IterEnd) != len(r.IterEnd) {
		t.Errorf("round trip lost iteration ends: %d vs %d", len(got.IterEnd), len(r.IterEnd))
	}
	if !strings.Contains(buf.String(), "\"rnr\"") {
		t.Error("export is missing the rnr stats block")
	}
}
