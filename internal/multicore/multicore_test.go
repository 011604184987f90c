package multicore

import (
	"runtime"
	"slices"
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
		// A leading separator rejects the string even when the other kind
		// follows: splitting "./0" at "/" would give workload ".", whose
		// String form "..0" does not parse back (found by FuzzParseJob).
		{"./0", JobSpec{}, false},
		{"/a.b", JobSpec{}, false},
	} {
		got, err := ParseJob(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseJob(%q) = %v, %v; want %v ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

func TestComposeSingleJobIsIdentity(t *testing.T) {
	solo := buildSolo(t, JobSpec{"pagerank", "urand"})
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
	// Targets lie in their jobs' slices.
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

// copyRelocate is the reference placement of a job in a slot: a copy
// of its solo trace with every address-carrying record shifted by
// delta. Loads and stores always carry an address; a marker carries one
// exactly when it is nonzero (table and boundary bases).
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

// buildSolo builds j as the one-core program at offset 0.
func buildSolo(t *testing.T, j JobSpec) *apps.App {
	t.Helper()
	cfg := apps.DefaultConfig()
	cfg.Cores = 1
	app, err := apps.BuildConfig(j.Workload, j.Input, apps.ScaleTest, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

var coRunJobs = []JobSpec{{"pagerank", "urand"}, {"spcg", "bbmat"}}

// TestComposeRelocationMatchesCopyOracle pins build-at-offset to the
// relocation oracle: every workload × input pair, placed in a slot
// k >= 1, must have the records and targets of its solo build shifted
// by k·Stride, record for record. An address that does not come from
// the job's layout (and so does not move with the offset) shows as a
// record that differs from the oracle.
func TestComposeRelocationMatchesCopyOracle(t *testing.T) {
	var pairs []JobSpec
	for _, w := range apps.Workloads {
		for _, in := range apps.InputsFor(w) {
			pairs = append(pairs, JobSpec{w, in})
		}
	}
	// Slot 0 holds the first pair again, so every pair sits in a slot k >= 1.
	jobs := append([]JobSpec{pairs[0]}, pairs...)
	co, err := Compose(apps.ScaleTest, jobs)
	if err != nil {
		t.Fatal(err)
	}
	var targets []mem.Region
	for k, j := range jobs {
		solo := buildSolo(t, j)
		delta := Stride * mem.Addr(k)
		want := copyRelocate(solo.Traces[0].Records(), delta)
		got := co.Traces[k].Records()
		if len(got) != len(want) {
			t.Fatalf("core %d (%s): %d records, oracle %d", k, j, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("core %d (%s) record %d = %v, oracle %v", k, j, i, got[i], want[i])
			}
		}
		for _, r := range solo.Targets {
			r.Base += delta
			targets = append(targets, r)
		}
	}
	if !slices.Equal(co.Targets, targets) {
		t.Fatalf("targets %v, oracle %v", co.Targets, targets)
	}
}

// FuzzParseJob checks ParseJob on arbitrary strings: it never panics,
// an accepted job names a nonempty workload and input, and the job's
// String form parses back to the same job.
func FuzzParseJob(f *testing.F) {
	for _, s := range []string{"pagerank.urand", "spcg/bbmat", "a/b.c", "a.b/c", ".x", "x/", "", "..", "a..b"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		j, err := ParseJob(s)
		if err != nil {
			return
		}
		if j.Workload == "" || j.Input == "" {
			t.Fatalf("ParseJob(%q) = %+v: empty field", s, j)
		}
		back, err := ParseJob(j.String())
		if err != nil || back != j {
			t.Fatalf("ParseJob(%q) = %+v, but ParseJob(%q) = %+v, %v", s, j, j.String(), back, err)
		}
	})
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
