package apps

import (
	"math"
	"testing"

	"rnrsim/internal/graph"
	"rnrsim/internal/mem"
	"rnrsim/internal/sparse"
	"rnrsim/internal/trace"
)

func testGraph() *graph.Graph { return graph.Uniform(400, 6, 5) }

func TestHLLEstimatesCardinality(t *testing.T) {
	var h HLL
	const n = 10000
	for i := uint64(0); i < n; i++ {
		h.Add(i)
	}
	est := h.Estimate()
	if math.Abs(est-n)/n > 0.5 {
		t.Errorf("HLL estimate %0.f for %d elements (>50%% error)", est, n)
	}
}

func TestHLLUnionIsMax(t *testing.T) {
	var a, b HLL
	for i := uint64(0); i < 500; i++ {
		a.Add(i)
	}
	for i := uint64(400); i < 900; i++ {
		b.Add(i)
	}
	pre := a
	changed := a.Union(&b)
	if !changed {
		t.Error("union of disjoint-ish sets reported no change")
	}
	for i := range a {
		if a[i] < pre[i] || a[i] < b[i] {
			t.Fatalf("register %d decreased in union", i)
		}
	}
	if a.Union(&b) {
		t.Error("second identical union reported a change")
	}
	// Union estimate must be at least each operand's estimate.
	if a.Estimate() < b.Estimate()*0.99 {
		t.Errorf("union estimate %f < operand %f", a.Estimate(), b.Estimate())
	}
}

func TestHLLAgainstExactBallSizes(t *testing.T) {
	// One HyperANF iteration = ball of radius 1 = 1 + in-neighbours.
	g := testGraph()
	cur := make([]HLL, g.N)
	nxt := make([]HLL, g.N)
	for v := 0; v < g.N; v++ {
		cur[v].Add(uint64(v))
	}
	copy(nxt, cur)
	for v := 0; v < g.N; v++ {
		for _, s := range g.Neighbors(v) {
			nxt[v].Union(&cur[s])
		}
	}
	// Exact ball sizes are small; HLL with 16 registers uses linear
	// counting there, which is quite accurate.
	var errSum, n float64
	for v := 0; v < g.N; v++ {
		exact := map[uint32]struct{}{uint32(v): {}}
		for _, s := range g.Neighbors(v) {
			exact[s] = struct{}{}
		}
		est := nxt[v].Estimate()
		errSum += math.Abs(est-float64(len(exact))) / float64(len(exact))
		n++
	}
	if mean := errSum / n; mean > 0.35 {
		t.Errorf("mean relative error of radius-1 ball estimates: %.2f", mean)
	}
}

// markerSummary extracts the marker sequence of a trace.
func markerSummary(recs []trace.Record) []trace.Marker {
	var out []trace.Marker
	for _, r := range recs {
		if r.Kind == trace.KindMarker {
			out = append(out, r.Marker)
		}
	}
	return out
}

func countKind(recs []trace.Record, k trace.Kind) int {
	n := 0
	for _, r := range recs {
		if r.Kind == k {
			n++
		}
	}
	return n
}

func TestPageRankTraceStructure(t *testing.T) {
	g := testGraph()
	app := PageRank(g, "urand", Config{Cores: 2, Iterations: 4})
	if len(app.Traces) != 2 {
		t.Fatalf("%d traces for 2 cores", len(app.Traces))
	}
	for c, tr := range app.Traces {
		recs := tr.Records()
		ms := markerSummary(recs)
		// Must contain, in order: init, record start, replay x2, end.
		idx := func(m trace.Marker) int {
			for i, x := range ms {
				if x == m {
					return i
				}
			}
			return -1
		}
		if idx(trace.MarkInit) < 0 || idx(trace.MarkRecordStart) < 0 ||
			idx(trace.MarkReplay) < 0 || idx(trace.MarkEnd) < 0 {
			t.Fatalf("core %d: missing RnR markers: %v", c, ms)
		}
		if !(idx(trace.MarkInit) < idx(trace.MarkRecordStart) &&
			idx(trace.MarkRecordStart) < idx(trace.MarkReplay) &&
			idx(trace.MarkReplay) < idx(trace.MarkEnd)) {
			t.Errorf("core %d: marker order wrong: %v", c, ms)
		}
		replays := 0
		for _, m := range ms {
			if m == trace.MarkReplay {
				replays++
			}
		}
		if replays != 2 { // iterations 2 and 3
			t.Errorf("core %d: %d replay markers, want 2", c, replays)
		}
		if countKind(recs, trace.KindLoad) == 0 || countKind(recs, trace.KindStore) == 0 {
			t.Errorf("core %d: no memory records", c)
		}
	}
}

func TestPageRankComputesRealRanks(t *testing.T) {
	g := testGraph()
	app := PageRank(g, "urand", Config{Cores: 2, Iterations: 4})
	// Total PageRank mass stays ~1 under the pull iteration.
	if math.Abs(app.Check-1) > 0.05 {
		t.Errorf("rank mass = %f, want ~1", app.Check)
	}
}

func TestPageRankIrregularLoadsCoverTarget(t *testing.T) {
	g := testGraph()
	app := PageRank(g, "urand", Config{Cores: 1, Iterations: 3})
	pcurr := app.Targets[0]
	pnext := app.Targets[1]
	inTarget := 0
	for _, r := range app.Traces[0].Records() {
		if r.Kind == trace.KindLoad && (pcurr.Contains(r.Addr) || pnext.Contains(r.Addr)) {
			inTarget++
		}
	}
	// One irregular load per edge per iteration (3 iterations).
	want := int(g.M()) * 3
	if inTarget < want || inTarget > want+3*g.N*2 {
		t.Errorf("target loads = %d, want >= %d (one per edge per iteration)", inTarget, want)
	}
}

func TestPageRankBaseSwapMarkers(t *testing.T) {
	g := testGraph()
	app := PageRank(g, "urand", Config{Cores: 1, Iterations: 4})
	pcurr, pnext := app.Targets[0], app.Targets[1]
	// Collect slot-0 base sets in order; they must alternate between the
	// two buffers starting with pcurr.
	var bases []mem.Addr
	for _, r := range app.Traces[0].Records() {
		if r.Kind == trace.KindMarker && r.Marker == trace.MarkAddrBaseSet && r.Aux == 0 {
			bases = append(bases, r.Addr)
		}
	}
	if len(bases) != 4 { // initial + one per non-final iteration
		t.Fatalf("slot-0 base sets: %d, want 4 (%v)", len(bases), bases)
	}
	want := []mem.Addr{pcurr.Base, pnext.Base, pcurr.Base, pnext.Base}
	for i := range bases {
		if bases[i] != want[i] {
			t.Errorf("base set %d = %#x, want %#x", i, uint64(bases[i]), uint64(want[i]))
		}
	}
}

func TestPageRankResolver(t *testing.T) {
	g := testGraph()
	app := PageRank(g, "urand", Config{Cores: 1, Iterations: 3})
	edge0 := app.EdgeRegion.Base
	targets := app.Resolve(mem.LineAddr(edge0))
	if len(targets) == 0 {
		t.Fatal("resolver returned nothing for the first edge line")
	}
	pcurr := app.Targets[0]
	for _, tl := range targets {
		if !pcurr.Contains(tl) {
			t.Errorf("resolved target %#x outside pcurr %v", uint64(tl), pcurr)
		}
	}
	// Rebinding to the other buffer must move the targets.
	pnext := app.Targets[1]
	re := app.MakeResolver(pnext.Base)
	for _, tl := range re(mem.LineAddr(edge0)) {
		if !pnext.Contains(tl) {
			t.Errorf("rebound target %#x outside pnext %v", uint64(tl), pnext)
		}
	}
	if app.Resolve(0x10) != nil {
		t.Error("resolver answered outside the edge region")
	}
}

func TestHyperANFTraceAndEstimate(t *testing.T) {
	g := testGraph()
	app := HyperANF(g, "urand", Config{Cores: 2, Iterations: 4})
	if len(app.Traces) != 2 {
		t.Fatalf("%d traces", len(app.Traces))
	}
	// After 3 union rounds on a random graph the estimated neighbourhood
	// function must exceed N (balls of radius 3 are big).
	if app.Check < float64(g.N) {
		t.Errorf("neighbourhood estimate %f < N=%d", app.Check, g.N)
	}
	for c, tr := range app.Traces {
		recs := tr.Records()
		if countKind(recs, trace.KindLoad) == 0 {
			t.Errorf("core %d: empty trace", c)
		}
	}
}

func TestSpCGTraceAndConvergence(t *testing.T) {
	m := sparse.Stencil3D(8, 8, 8)
	app := SpCG(m, "atmosmodj", Config{Cores: 2, Iterations: 4})
	if app.Check > 1e-10 {
		t.Errorf("CG residual %g, want <= 1e-10", app.Check)
	}
	// The irregular gather must appear once per nonzero per iteration.
	pv := app.Targets[0]
	gathers := 0
	for _, tr := range app.Traces {
		recs := tr.Records()
		for _, r := range recs {
			if r.Kind == trace.KindLoad && pv.Contains(r.Addr) && r.PC == pcSpCG+0x0c {
				gathers++
			}
		}
	}
	want := int(m.NNZ()) * 4
	if gathers != want {
		t.Errorf("p-vector gathers = %d, want %d", gathers, want)
	}
}

func TestSpCGNoBaseSwap(t *testing.T) {
	m := sparse.Stencil3D(6, 6, 6)
	app := SpCG(m, "atmosmodj", Config{Cores: 1, Iterations: 4})
	sets := 0
	for _, r := range app.Traces[0].Records() {
		if r.Kind == trace.KindMarker && r.Marker == trace.MarkAddrBaseSet {
			sets++
		}
	}
	if sets != 1 {
		t.Errorf("spCG emitted %d AddrBase.set markers, want 1 (base never moves)", sets)
	}
}

func TestBuildCatalog(t *testing.T) {
	for _, w := range Workloads {
		for _, in := range InputsFor(w) {
			app, err := Build(w, in, ScaleTest)
			if err != nil {
				t.Fatalf("Build(%s,%s): %v", w, in, err)
			}
			if app.Records() == 0 {
				t.Errorf("%s/%s: empty trace", w, in)
			}
			if app.Cores != 4 || len(app.Traces) != 4 {
				t.Errorf("%s/%s: cores=%d traces=%d", w, in, app.Cores, len(app.Traces))
			}
		}
	}
	if _, err := Build("nope", "urand", ScaleTest); err == nil {
		t.Error("Build accepted unknown workload")
	}
	if _, err := Build("pagerank", "nope", ScaleTest); err == nil {
		t.Error("Build accepted unknown input")
	}
}

func TestInputCatalogsValid(t *testing.T) {
	for _, name := range GraphInputOrder {
		g, _ := GraphInput(ScaleTest, name)
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, name := range MatrixInputOrder {
		m, _ := MatrixInput(ScaleTest, name)
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestTraceSharingIsSafe(t *testing.T) {
	// Two Sources over the same app must iterate independently.
	g := testGraph()
	app := PageRank(g, "urand", Config{Cores: 1, Iterations: 3})
	s1 := app.Sources()[0]
	s2 := app.Sources()[0]
	r1, _ := s1.Next()
	for i := 0; i < 10; i++ {
		s2.Next()
	}
	r1b, _ := app.Sources()[0].Next()
	if r1 != r1b {
		t.Error("fresh source does not restart the trace")
	}
}
