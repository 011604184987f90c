// Package multicore composes independent single-core programs into one
// multi-programmed apps.App for the shared-LLC co-run experiments: job k
// is built at Cores=1 in its own address-space slice (its layout starts
// k·Stride above a solo build's) and scheduled on core k in its own
// barrier group, so the composed workloads free-run against each other
// and interact only through the shared LLC, the coherence directory, and
// the DRAM channel — exactly the contention regime the multicore
// subsystem exists to measure.
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
// room for 2^26 slices, so jobs built k·Stride apart can never collide.
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
// stays intact, and the workload never contains one. A string whose
// earliest separator is its first or last byte is rejected.
func ParseJob(s string) (JobSpec, error) {
	i := strings.IndexAny(s, "./")
	if i <= 0 || i == len(s)-1 {
		return JobSpec{}, fmt.Errorf("multicore: job %q not of the form workload.input", s)
	}
	return JobSpec{Workload: s[:i], Input: s[i+1:]}, nil
}

// Compose builds job k as a one-core app at offset k·Stride, so its
// traces and targets lie in their own address-space slice from the
// start, and merges the jobs into a single N-core App with one barrier
// group per job. The composed App has no indirect resolver (domain
// prefetchers that need value inspection — DROPLET, IMP — are not
// supported for co-runs); its Check is the sum of the jobs' checks and
// its Iterations the maximum, since the jobs retire independently.
//
// Job 0 sits at offset 0, so a single-job composition is identical to
// the one-core solo build — the anchor for the differential tests that
// pin the multicore path to the single-core system.
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
		cfg := apps.DefaultConfig()
		cfg.Cores = 1
		cfg.Offset = Stride * mem.Addr(k)
		app, err := apps.BuildConfig(j.Workload, j.Input, s, cfg)
		if err != nil {
			return nil, fmt.Errorf("multicore: job %d (%s): %w", k, j, err)
		}
		composed.Traces[k] = app.Traces[0]
		composed.Groups[k] = []int{k}
		composed.Targets = append(composed.Targets, app.Targets...)
		composed.InputBytes += app.InputBytes
		composed.Check += app.Check
		composed.Iterations = max(composed.Iterations, app.Iterations)
		names[k] = j.String()
	}
	composed.Input = strings.Join(names, "+")
	return composed, nil
}
