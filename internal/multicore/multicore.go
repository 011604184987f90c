// Package multicore composes independent single-core programs into one
// multi-programmed apps.App for the shared-LLC co-run experiments: job k
// is built at Cores=1, relocated into its own address-space slice
// (base + k·Stride), and scheduled on core k in its own barrier group,
// so the composed workloads free-run against each other and interact
// only through the shared LLC, the coherence directory, and the DRAM
// channel — exactly the contention regime the multicore subsystem
// exists to measure.
package multicore

import (
	"fmt"
	"strings"

	"rnrsim/internal/apps"
	"rnrsim/internal/mem"
	"rnrsim/internal/trace"
)

// Stride is the address-space slice reserved per composed job. Every
// workload's footprint (inputs, metadata tables, stacks of synthetic
// bases) lives far below 2^38 bytes, and 64-bit line addresses leave
// room for 2^26 slices, so relocation by k·Stride can never collide.
const Stride mem.Addr = 1 << 38

// JobSpec names one program of a co-run: a workload and its input, as
// accepted by apps.Build.
type JobSpec struct {
	Workload string
	Input    string
}

func (j JobSpec) String() string { return j.Workload + "." + j.Input }

// ParseJob parses "workload.input" or "workload/input" into a JobSpec.
// The split happens at the earliest separator of either kind, so an
// input name containing the other separator ("pagerank/web.graph")
// stays intact; a separator in first or last position does not split.
func ParseJob(s string) (JobSpec, error) {
	i := -1
	for _, sep := range []string{".", "/"} {
		if j := strings.Index(s, sep); j > 0 && j < len(s)-1 && (i < 0 || j < i) {
			i = j
		}
	}
	if i < 0 {
		return JobSpec{}, fmt.Errorf("multicore: job %q not of the form workload.input", s)
	}
	return JobSpec{Workload: s[:i], Input: s[i+1:]}, nil
}

// Compose builds one App per job at Cores=1, relocates job k's address
// space by k·Stride, and merges them into a single N-core App with one
// barrier group per job. The composed App has no indirect resolver
// (domain prefetchers that need value inspection — DROPLET, IMP — are
// not supported for co-runs); its Check is the sum of the jobs' checks
// and its Iterations the maximum, since the jobs retire independently.
//
// Job 0 is not relocated, so a single-job composition is byte-identical
// to apps.BuildCores(w, in, s, 1) — the anchor for the differential
// tests that pin the multicore path to the single-core system.
func Compose(s apps.Scale, jobs []JobSpec) (*apps.App, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("multicore: empty job list")
	}
	names := make([]string, len(jobs))
	composed := &apps.App{
		Name:   "corun",
		Cores:  len(jobs),
		Traces: make([]trace.Trace, len(jobs)),
		Groups: make([][]int, len(jobs)),
	}
	for k, j := range jobs {
		app, err := apps.BuildCores(j.Workload, j.Input, s, 1)
		if err != nil {
			return nil, fmt.Errorf("multicore: job %d (%s): %w", k, j, err)
		}
		if len(app.Traces) != 1 {
			return nil, fmt.Errorf("multicore: job %d (%s): built %d traces, want 1", k, j, len(app.Traces))
		}
		delta := Stride * mem.Addr(k)
		// apps.BuildCores emits a fresh trace on every call and keeps no
		// reference to it, so nothing else can observe the shift: relocate
		// it in place instead of copying a trace of up to a few hundred MB.
		// A kernel body occurs once per iteration but is stored once, so
		// each distinct segment is shifted exactly once.
		if delta != 0 {
			for _, seg := range app.Traces[0].Distinct() {
				relocate(seg, delta)
			}
		}
		composed.Traces[k] = app.Traces[0]
		composed.Groups[k] = []int{k}
		for _, r := range app.Targets {
			r.Base += delta
			composed.Targets = append(composed.Targets, r)
		}
		composed.InputBytes += app.InputBytes
		composed.Check += app.Check
		if app.Iterations > composed.Iterations {
			composed.Iterations = app.Iterations
		}
		names[k] = j.String()
	}
	composed.Input = strings.Join(names, "+")
	return composed, nil
}

// relocate shifts every address-carrying record by delta, in place.
// Loads and stores always carry an address; markers carry one exactly
// when it is nonzero (table bases, boundary-register bases — a bump
// allocator starting above the null page never hands out address zero,
// and all other markers emit Addr 0 by construction, see trace.Builder).
func relocate(recs []trace.Record, delta mem.Addr) {
	for i := range recs {
		r := &recs[i]
		switch r.Kind {
		case trace.KindLoad, trace.KindStore:
			r.Addr += delta
		case trace.KindMarker:
			if r.Addr != 0 {
				r.Addr += delta
			}
		}
	}
}
