package apps

import (
	"testing"

	"rnrsim/internal/graph"
	"rnrsim/internal/mem"
	"rnrsim/internal/sparse"
	"rnrsim/internal/trace"
)

// iterSlices splits a trace into per-iteration record slices using the
// IterBegin/IterEnd markers.
func iterSlices(recs []trace.Record) [][]trace.Record {
	var out [][]trace.Record
	var cur []trace.Record
	in := false
	for _, r := range recs {
		if r.Kind == trace.KindMarker && r.Marker == trace.MarkIterBegin {
			in = true
			cur = nil
			continue
		}
		if r.Kind == trace.KindMarker && r.Marker == trace.MarkIterEnd {
			in = false
			out = append(out, cur)
			continue
		}
		if in {
			cur = append(cur, r)
		}
	}
	return out
}

// loadsOf extracts the load addresses of one iteration, skipping markers.
func loadsOf(recs []trace.Record) []mem.Addr {
	var out []mem.Addr
	for _, r := range recs {
		if r.Kind == trace.KindLoad {
			out = append(out, r.Addr)
		}
	}
	return out
}

func TestPageRankIterationsRepeatModuloBaseSwap(t *testing.T) {
	// The paper's premise: the access *pattern* repeats across iterations.
	// With the p_curr/p_next double buffer, loads of iteration k and k+2
	// must be identical, and k vs k+1 identical after swapping the bases.
	g := graph.Uniform(300, 5, 11)
	app := PageRank(g, "urand", Config{Cores: 1, Iterations: 4})
	iters := iterSlices(app.Traces[0].Records())
	if len(iters) != 4 {
		t.Fatalf("found %d iterations", len(iters))
	}
	l0, l2 := loadsOf(iters[0]), loadsOf(iters[2])
	if len(l0) == 0 || len(l0) != len(l2) {
		t.Fatalf("load counts differ: %d vs %d", len(l0), len(l2))
	}
	for i := range l0 {
		if l0[i] != l2[i] {
			t.Fatalf("iteration 0 and 2 diverge at load %d: %#x vs %#x", i, uint64(l0[i]), uint64(l2[i]))
		}
	}
	// k vs k+1: addresses in the pcurr/pnext regions swap bases, all
	// other regions are identical.
	pcurr, pnext := app.Targets[0], app.Targets[1]
	l1 := loadsOf(iters[1])
	if len(l0) != len(l1) {
		t.Fatalf("adjacent iterations differ in load count")
	}
	for i := range l0 {
		a, b := l0[i], l1[i]
		switch {
		case pcurr.Contains(a):
			want := pnext.Base + (a - pcurr.Base)
			if b != want {
				t.Fatalf("load %d: %#x should swap to %#x, got %#x", i, uint64(a), uint64(want), uint64(b))
			}
		case pnext.Contains(a):
			want := pcurr.Base + (a - pnext.Base)
			if b != want {
				t.Fatalf("load %d: swap mismatch", i)
			}
		default:
			if a != b {
				t.Fatalf("non-target load %d moved across iterations", i)
			}
		}
	}
}

func TestSpCGIterationsIdentical(t *testing.T) {
	// spCG's p vector never moves: every iteration's loads are identical.
	m := sparse.Banded(300, 40, 0.05, 5)
	app := SpCG(m, "bbmat", Config{Cores: 1, Iterations: 4})
	iters := iterSlices(app.Traces[0].Records())
	l0 := loadsOf(iters[0])
	for k := 1; k < len(iters); k++ {
		lk := loadsOf(iters[k])
		if len(lk) != len(l0) {
			t.Fatalf("iteration %d load count %d != %d", k, len(lk), len(l0))
		}
		for i := range l0 {
			if l0[i] != lk[i] {
				t.Fatalf("iteration %d diverges at load %d", k, i)
			}
		}
	}
}

func TestHyperANFBaseSwapMarkers(t *testing.T) {
	g := graph.Uniform(200, 5, 3)
	app := HyperANF(g, "urand", Config{Cores: 1, Iterations: 4})
	hcurr, hnext := app.Targets[0], app.Targets[1]
	var bases []mem.Addr
	for _, r := range app.Traces[0].Records() {
		if r.Kind == trace.KindMarker && r.Marker == trace.MarkAddrBaseSet && r.Aux == 0 {
			bases = append(bases, r.Addr)
		}
	}
	want := []mem.Addr{hcurr.Base, hnext.Base, hcurr.Base, hnext.Base}
	if len(bases) != len(want) {
		t.Fatalf("slot-0 base sets = %d, want %d", len(bases), len(want))
	}
	for i := range want {
		if bases[i] != want[i] {
			t.Errorf("base set %d = %#x, want %#x", i, uint64(bases[i]), uint64(want[i]))
		}
	}
}

func TestRegionTaggingMatchesAllocator(t *testing.T) {
	g := graph.Uniform(200, 4, 9)
	app := PageRank(g, "urand", Config{Cores: 1, Iterations: 3})
	// Every load/store must carry the region id of the region containing
	// its address (Aux), for the whole trace.
	regions := map[int32]mem.Region{}
	for _, tgt := range app.Targets {
		regions[int32(tgt.ID)] = tgt
	}
	for _, r := range app.Traces[0].Records() {
		if r.Kind != trace.KindLoad && r.Kind != trace.KindStore {
			continue
		}
		if reg, ok := regions[r.Aux]; ok {
			if !reg.Contains(r.Addr) {
				t.Fatalf("record %v tagged region %d but outside %v", r, r.Aux, reg)
			}
		}
	}
}

func TestMetadataTablesSizedForWorstCase(t *testing.T) {
	// The programmer allocates the sequence table to survive a 100% miss
	// rate: capacity must be at least the per-core edge count.
	g := graph.Uniform(500, 6, 21)
	app := PageRank(g, "urand", Config{Cores: 2, Iterations: 3})
	for c, tr := range app.Traces {
		recs := tr.Records()
		var seqBytes uint64
		for _, r := range recs {
			if r.Kind == trace.KindMarker && r.Marker == trace.MarkSeqTable {
				seqBytes = r.Count
			}
		}
		perCoreEdges := uint64(g.M()) / 2
		if seqBytes/4 < perCoreEdges {
			t.Errorf("core %d sequence table holds %d entries for %d edges", c, seqBytes/4, perCoreEdges)
		}
	}
}

func TestPartitionRowsBalanced(t *testing.T) {
	m := sparse.Banded(1000, 60, 0.08, 7)
	rows := partitionRows(m, 4)
	total := 0
	var counts [4]int64
	for c, rs := range rows {
		total += len(rs)
		for _, r := range rs {
			counts[c] += m.Offsets[r+1] - m.Offsets[r]
		}
	}
	if total != m.N {
		t.Fatalf("partitioned %d rows of %d", total, m.N)
	}
	// nnz balance within 2x of ideal.
	ideal := m.NNZ() / 4
	for c, n := range counts {
		if n > ideal*2 {
			t.Errorf("partition %d has %d nnz, ideal %d", c, n, ideal)
		}
	}
}
