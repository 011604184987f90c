package bench

import (
	"bytes"
	"testing"
)

// TestCoRunTableShape runs the co-run experiment once and checks the
// table's structure: one row per (variant, core), solo-normalised
// slowdowns present, and the cross-core issue column populated exactly
// for the variants that attach the cross-core prefetcher.
func TestCoRunTableShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := testSuite()
	tb := s.CoRun()
	want := len(coRunVariants) * len(coRunJobs)
	if len(tb.Rows) != want {
		t.Fatalf("corun rows = %d, want %d", len(tb.Rows), want)
	}
	for i, row := range tb.Rows {
		v := coRunVariants[i/len(coRunJobs)]
		if row[0] != v.name {
			t.Errorf("row %d variant = %q, want %q", i, row[0], v.name)
		}
		if row[5] == "0.00" {
			t.Errorf("row %d (%s core %s) has zero slowdown: solo finish line missing", i, row[0], row[1])
		}
		hasIssued := row[6] != "-"
		if hasIssued != v.xc {
			t.Errorf("row %d (%s): xcore issued = %q, cross-core attached = %v", i, row[0], row[6], v.xc)
		}
	}
}

// TestCoRunExperimentDeterministic pins the served/direct and -j
// guarantee for the co-run experiment: its 12 co-runs are planned, and
// the table assembled after an 8-wide Prewarm of them is byte-identical
// to a serial suite's.
func TestCoRunExperimentDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the co-run grid twice")
	}
	if plan := testSuite().Plan("corun"); len(plan) != 12 {
		t.Fatalf("corun planned %d runs, want 12 (one co-run and two solo runs per variant)", len(plan))
	}

	serial := testSuite()
	serial.Parallelism = 1
	want := []byte(serial.CoRun().Format())

	par := testSuite()
	par.Parallelism = 8
	par.Prewarm(par.Plan("corun"))
	warm := par.FreshRuns()
	got := []byte(par.CoRun().Format())
	if d := par.FreshRuns() - warm; d != 0 {
		t.Errorf("corun assembly after Prewarm performed %d fresh runs; want 0", d)
	}

	if !bytes.Equal(want, got) {
		t.Fatalf("corun diverged across Parallelism:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
}
