package multicore

import (
	"runtime"
	"testing"

	"rnrsim/internal/apps"
	"rnrsim/internal/mem"
	"rnrsim/internal/trace"
)

func TestParseJob(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want JobSpec
		ok   bool
	}{
		{"pagerank.urand", JobSpec{"pagerank", "urand"}, true},
		{"spcg/bbmat", JobSpec{"spcg", "bbmat"}, true},
		{"pagerank", JobSpec{}, false},
		{".urand", JobSpec{}, false},
		{"pagerank.", JobSpec{}, false},
		// Separator-precedence regression: the split must happen at the
		// earliest separator of either kind. The old code tried "." before
		// "/" regardless of position, so "a/b.c" parsed as workload "a/b".
		{"a/b.c", JobSpec{"a", "b.c"}, true},
		{"a.b/c", JobSpec{"a", "b/c"}, true},
		{"a.b.c", JobSpec{"a", "b.c"}, true},
		{"a/b/c", JobSpec{"a", "b/c"}, true},
		{"/urand", JobSpec{}, false},
		{"pagerank/", JobSpec{}, false},
	} {
		got, err := ParseJob(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseJob(%q) = %v, %v; want %v ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

func TestComposeSingleJobIsIdentity(t *testing.T) {
	solo, err := apps.BuildCores("pagerank", "urand", apps.ScaleTest, 1)
	if err != nil {
		t.Fatal(err)
	}
	co, err := Compose(apps.ScaleTest, []JobSpec{{"pagerank", "urand"}})
	if err != nil {
		t.Fatal(err)
	}
	if co.Cores != 1 || len(co.Traces) != 1 {
		t.Fatalf("composed single job has %d cores / %d traces", co.Cores, len(co.Traces))
	}
	got, want := co.Traces[0].Records(), solo.Traces[0].Records()
	if len(got) != len(want) {
		t.Fatalf("trace length %d != solo %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d differs: %+v != %+v", i, got[i], want[i])
		}
	}
	if co.Check != solo.Check || co.Iterations != solo.Iterations {
		t.Fatalf("metadata differs: check %v/%v iters %d/%d",
			co.Check, solo.Check, co.Iterations, solo.Iterations)
	}
}

func TestComposeRelocatesDisjointSlices(t *testing.T) {
	co, err := Compose(apps.ScaleTest, []JobSpec{
		{"pagerank", "urand"}, {"spcg", "bbmat"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if co.Cores != 2 || len(co.Traces) != 2 || len(co.Groups) != 2 {
		t.Fatalf("shape: cores=%d traces=%d groups=%d", co.Cores, len(co.Traces), len(co.Groups))
	}
	for k, tr := range co.Traces {
		lo := Stride * mem.Addr(k)
		hi := lo + Stride
		for i, r := range tr.Records() {
			addr := r.Addr
			if addr == 0 {
				continue
			}
			if r.Kind == trace.KindExec {
				continue
			}
			if addr < lo || addr >= hi {
				t.Fatalf("core %d record %d addr %#x outside slice [%#x, %#x)",
					k, i, uint64(addr), uint64(lo), uint64(hi))
			}
		}
	}
	// Targets relocate with their jobs.
	seen := map[int]bool{}
	for _, r := range co.Targets {
		seen[int(r.Base/Stride)] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("targets not spread across slices: %v", co.Targets)
	}
	// Barrier groups are singletons in job order.
	for k, g := range co.Groups {
		if len(g) != 1 || g[0] != k {
			t.Fatalf("group %d = %v, want [%d]", k, g, k)
		}
	}
	if co.Resolve != nil || co.MakeResolver != nil {
		t.Fatal("composed app must not carry an indirect resolver")
	}
}

func TestComposeRejectsUnknownJob(t *testing.T) {
	if _, err := Compose(apps.ScaleTest, []JobSpec{{"nosuch", "urand"}}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := Compose(apps.ScaleTest, nil); err == nil {
		t.Fatal("empty job list accepted")
	}
}

// copyRelocate is the reference relocation Compose used to perform: a
// fresh copy of the trace with every address-carrying record shifted.
func copyRelocate(recs []trace.Record, delta mem.Addr) []trace.Record {
	out := make([]trace.Record, len(recs))
	copy(out, recs)
	for i := range out {
		r := &out[i]
		if r.Kind == trace.KindLoad || r.Kind == trace.KindStore || (r.Kind == trace.KindMarker && r.Addr != 0) {
			r.Addr += delta
		}
	}
	return out
}

var coRunJobs = []JobSpec{{"pagerank", "urand"}, {"spcg", "bbmat"}}

// TestComposeRelocationMatchesCopyOracle pins the in-place relocation to
// copy-then-relocate over independently built, expanded job traces, and
// checks that two compositions are equal: relocating in place must not
// reach any input a later Compose call reads. A PageRank and an spCG job
// both sit in a relocated slot, and their kernel bodies are shared by
// several iterations, so a body shifted once per occurrence instead of
// once in all shows as a record off by a multiple of the slot's delta.
func TestComposeRelocationMatchesCopyOracle(t *testing.T) {
	jobs := []JobSpec{{"pagerank", "urand"}, {"spcg", "bbmat"}, {"pagerank", "urand"}}
	first, err := Compose(apps.ScaleTest, jobs)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Compose(apps.ScaleTest, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for k, j := range jobs {
		if tr := first.Traces[k]; len(tr.Distinct()) >= len(tr) {
			t.Fatalf("core %d (%s): no segment occurs twice; the test lost its shared bodies", k, j)
		}
		solo, err := apps.BuildCores(j.Workload, j.Input, apps.ScaleTest, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := copyRelocate(solo.Traces[0].Records(), Stride*mem.Addr(k))
		for name, tr := range map[string]trace.Trace{"first": first.Traces[k], "second": second.Traces[k]} {
			got := tr.Records()
			if len(got) != len(want) {
				t.Fatalf("%s compose, core %d: %d records, oracle %d", name, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s compose, core %d record %d = %v, oracle %v", name, k, i, got[i], want[i])
				}
			}
		}
	}
	if len(first.Targets) != len(second.Targets) {
		t.Fatalf("targets differ between compositions: %v vs %v", first.Targets, second.Targets)
	}
	for i := range first.Targets {
		if first.Targets[i] != second.Targets[i] {
			t.Fatalf("target %d differs between compositions: %v vs %v", i, first.Targets[i], second.Targets[i])
		}
	}
}

// BenchmarkCompose measures composing the test-scale co-run pair. B/record
// is the allocation per composed trace record, input generation included.
func BenchmarkCompose(b *testing.B) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	records := 0
	for i := 0; i < b.N; i++ {
		app, err := Compose(apps.ScaleTest, coRunJobs)
		if err != nil {
			b.Fatal(err)
		}
		records += app.Records()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(records), "B/record")
}
