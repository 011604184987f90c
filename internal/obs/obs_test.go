package obs

import (
	"strings"
	"testing"

	"rnrsim/internal/telemetry"
)

func checkInvariant(t *testing.T, r *Recorder) {
	t.Helper()
	r.CheckInvariants(func(msg string) { t.Errorf("invariant: %s", msg) })
}

// TestOutcomeClassification drives one record through each lifecycle
// and checks exactly one outcome per record plus the histogram feeds.
func TestOutcomeClassification(t *testing.T) {
	r := NewRecorder(Config{})
	v := r.View("l2.0")

	// Timely: issue @10, fill @40, demand hit @100.
	v.PrefetchIssued(0x1000, 10, 3)
	v.PrefetchFilled(0x1000, 40, false)
	v.PrefetchDemandHit(0x1000, 100)

	// Late: issue @10, demand merges @30, fill @60.
	v.PrefetchIssued(0x2000, 10, 4)
	v.PrefetchLateMerge(0x2000, 30, 20)
	v.PrefetchFilled(0x2000, 60, true)

	// Unused-evicted: issue, fill, evict.
	v.PrefetchIssued(0x3000, 10, 5)
	v.PrefetchFilled(0x3000, 50, false)
	v.PrefetchEvictedUnused(0x3000, 200)

	// Redundant: filtered without ever allocating.
	v.PrefetchRedundant(0x4000, 15)

	// Unused-at-end: issued and filled, closed by Finalize.
	v.PrefetchIssued(0x5000, 20, 6)
	v.PrefetchFilled(0x5000, 70, false)

	checkInvariant(t, r)
	r.Finalize(300)
	checkInvariant(t, r)

	got := r.Stats()
	want := Stats{
		Issued: 5, Timely: 1, Late: 1, UnusedEvicted: 1, UnusedAtEnd: 1,
		Redundant: 1, LateStallShaved: 20,
	}
	if got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
	if got.Issued != got.Closed() {
		t.Fatalf("issued %d != closed %d after finalize", got.Issued, got.Closed())
	}
	if r.OpenRecords() != 0 {
		t.Fatalf("%d open records after finalize", r.OpenRecords())
	}

	s := r.Summarize()
	// prefetch_to_use: one sample, 100-40 = 60 cycles.
	h := s.Histograms["prefetch_to_use_cycles"]
	if h.Count != 1 || h.Sum != 60 {
		t.Errorf("prefetch_to_use = %+v, want count 1 sum 60", h)
	}
	// fill_latency: four fills (30, 50, 40, 50 cycles).
	h = s.Histograms["fill_latency_cycles"]
	if h.Count != 4 || h.Sum != 30+50+40+50 {
		t.Errorf("fill_latency = %+v, want count 4 sum 170", h)
	}
	// mshr_at_issue: 3,4,5,6.
	h = s.Histograms["mshr_at_issue"]
	if h.Count != 4 || h.Sum != 18 {
		t.Errorf("mshr_at_issue = %+v, want count 4 sum 18", h)
	}
	if s.Lifecycle.Issued != 5 || s.Lifecycle.OpenAtEnd != 0 {
		t.Errorf("lifecycle section = %+v", s.Lifecycle)
	}
}

// TestForeignEventsIgnored: events for lines without an open record
// (prefetch children from the level above) must not corrupt the law.
func TestForeignEventsIgnored(t *testing.T) {
	r := NewRecorder(Config{})
	v := r.View("llc")
	v.PrefetchFilled(0x9000, 50, false)
	v.PrefetchDemandHit(0x9000, 60)
	v.PrefetchLateMerge(0x9000, 70, 5)
	v.PrefetchEvictedUnused(0x9000, 80)
	if got := r.Stats(); got != (Stats{}) {
		t.Fatalf("foreign events counted: %+v", got)
	}
	checkInvariant(t, r)
}

// TestDoubleIssueStaysConserved covers the defensive path: a second
// issue for a line with an open record closes the old one as redundant.
func TestDoubleIssueStaysConserved(t *testing.T) {
	r := NewRecorder(Config{})
	v := r.View("l2.0")
	v.PrefetchIssued(0x1000, 10, 0)
	v.PrefetchIssued(0x1000, 20, 1)
	checkInvariant(t, r)
	r.Finalize(100)
	got := r.Stats()
	if got.Issued != 2 || got.Redundant != 1 || got.UnusedAtEnd != 1 {
		t.Fatalf("stats = %+v", got)
	}
	checkInvariant(t, r)
}

// TestIterationDeltas checks per-iteration outcome counts are deltas
// between IterEnd marks, and hostile indices land in the overflow.
func TestIterationDeltas(t *testing.T) {
	r := NewRecorder(Config{})
	v := r.View("l2.0")

	v.PrefetchIssued(0x1000, 5, 0)
	v.PrefetchFilled(0x1000, 20, false)
	v.PrefetchDemandHit(0x1000, 30)
	r.IterEnd(0, 100)

	v.PrefetchRedundant(0x2000, 110)
	v.PrefetchIssued(0x3000, 120, 1)
	v.PrefetchLateMerge(0x3000, 130, 10)
	v.PrefetchFilled(0x3000, 140, true)
	r.IterEnd(1, 200)

	r.IterEnd(-1, 210)                   // hostile
	r.IterEnd(MaxTrackedIterations, 220) // beyond cap

	r.Finalize(300)
	s := r.Summarize()
	if len(s.Lifecycle.Iterations) != 2 {
		t.Fatalf("iterations = %+v, want 2", s.Lifecycle.Iterations)
	}
	i0, i1 := s.Lifecycle.Iterations[0], s.Lifecycle.Iterations[1]
	if i0.Iter != 0 || i0.EndCycle != 100 || i0.Issued != 1 || i0.Timely != 1 || i0.Redundant != 0 {
		t.Errorf("iter 0 = %+v", i0)
	}
	if i1.Iter != 1 || i1.Issued != 2 || i1.Late != 1 || i1.Redundant != 1 || i1.Timely != 0 {
		t.Errorf("iter 1 = %+v", i1)
	}
	if s.Lifecycle.IterOverflow != 2 {
		t.Errorf("iter overflow = %d, want 2", s.Lifecycle.IterOverflow)
	}
}

// TestIterationCap drives the outcome table to its real cap: the last
// trackable index is kept, the first one past it overflows.
func TestIterationCap(t *testing.T) {
	r := NewRecorder(Config{})
	r.IterEnd(MaxTrackedIterations-1, 10)
	r.IterEnd(MaxTrackedIterations, 20)
	if len(r.iterMarks) != MaxTrackedIterations || r.iterOverflow != 1 {
		t.Fatalf("table holds %d marks with %d overflowed, want %d and 1",
			len(r.iterMarks), r.iterOverflow, MaxTrackedIterations)
	}
	its := r.Summarize().Lifecycle.Iterations
	if len(its) != 1 || its[0].Iter != MaxTrackedIterations-1 || its[0].EndCycle != 10 {
		t.Errorf("iterations = %+v, want only the last trackable one", its)
	}
}

// TestMirrorRegistry checks observations are duplicated into the
// mirror registry under obs.* names for cross-job /metrics exposition.
func TestMirrorRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := NewRecorder(Config{Mirror: reg})
	v := r.View("l2.0")
	v.PrefetchIssued(0x1000, 10, 7)
	v.PrefetchFilled(0x1000, 25, false)
	v.PrefetchDemandHit(0x1000, 40)

	hs := reg.Histograms()
	if len(hs) != 3 {
		t.Fatalf("mirror has %d histograms, want 3", len(hs))
	}
	for _, nh := range hs {
		if !strings.HasPrefix(nh.Name, "obs.") {
			t.Errorf("mirror name %q lacks obs. prefix", nh.Name)
		}
	}
	if got := reg.Histogram("obs.fill_latency_cycles").Count(); got != 1 {
		t.Errorf("mirror fill_latency count = %d, want 1", got)
	}
	if got := reg.Histogram("obs.mshr_at_issue").Sum(); got != 7 {
		t.Errorf("mirror mshr_at_issue sum = %d, want 7", got)
	}
}

// TestAttachDivergence: the count and max come from the arguments, and
// the mean adds the past-cap sum to the listed scores. Here one window
// past the cap scored 0.375 and the max, 0.75, is not a listed score.
func TestAttachDivergence(t *testing.T) {
	s := &Summary{}
	s.AttachDivergence(nil, 0, 0, 0)
	if s.Lifecycle.Divergence != nil {
		t.Fatal("empty attach created a section")
	}
	s.AttachDivergence([]WindowScoreJSON{
		{Core: 0, Window: 0, Score: 0.25},
		{Core: 0, Window: 1, Score: 0.5},
		{Core: 1, Window: 0, Score: 0.125},
	}, 4, 0.375, 0.75)
	d := s.Lifecycle.Divergence
	if d == nil || d.WindowsScored != 4 || len(d.Windows) != 3 {
		t.Fatalf("divergence = %+v", d)
	}
	if d.MaxScore != 0.75 {
		t.Errorf("max = %v, want 0.75", d.MaxScore)
	}
	if mean := (0.25 + 0.5 + 0.125 + 0.375) / 4; d.MeanScore != mean {
		t.Errorf("mean = %v, want %v", d.MeanScore, mean)
	}
}
