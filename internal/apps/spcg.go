package apps

import (
	"math/rand"

	"rnrsim/internal/mem"
	"rnrsim/internal/sparse"
	"rnrsim/internal/trace"
)

// SpCG builds the sparse conjugate-gradient workload (Adept's sparse CG
// [23]): each CG iteration is dominated by SpMV, whose access to the dense
// direction vector p through the column-index array is the irregular RnR
// target. Unlike PageRank, the target vector's *base* never moves — only
// its values change — so the recorded pattern replays without swaps.
func SpCG(m *sparse.Matrix, input string, cfg Config) *App {
	return spCG(m, input, cfg, algorithm1)
}

// spCG is SpCG with the trace emitter as a parameter.
func spCG(m *sparse.Matrix, input string, cfg Config, emit emitter) *App {
	cfg = cfg.withFloors()
	n := m.N

	l := newLayout()
	rowptr := l.al.AllocPage("cg.rowptr", uint64(n+1)*8)
	cols := l.al.AllocPage("cg.cols", uint64(m.NNZ())*4)
	vals := l.al.AllocPage("cg.vals", uint64(m.NNZ())*8)
	pvec := l.al.AllocPage("cg.p", uint64(n)*8)
	apvec := l.al.AllocPage("cg.Ap", uint64(n)*8)
	rvec := l.al.AllocPage("cg.r", uint64(n)*8)
	xvec := l.al.AllocPage("cg.x", uint64(n)*8)
	seqT, divT := l.metaTables(cfg.Cores, uint64(m.NNZ())/uint64(cfg.Cores)+uint64(n)+1024)

	// Row partitioning: contiguous row blocks balanced by nnz, the usual
	// SPMD decomposition for CSR SpMV.
	rowsOf := partitionRows(m, cfg.Cores)

	app := &App{
		Name: "spcg", Input: input, Cores: cfg.Cores,
		InputBytes: m.InputBytes(),
		Targets:    []mem.Region{pvec},
		EdgeRegion: cols,
		Iterations: cfg.Iterations,
		Resolve:    indirectResolver(cols, m.Cols, pvec.Base, 8),
	}
	app.Traces = emit(cfg, seqT, divT, app.Targets, func(b *trace.Builder, c int, _, _ mem.Region) {
		emitSpCGIteration(b, m, rowsOf[c], rowptr, cols, vals, pvec, apvec, rvec, xvec)
	})

	// Real numerics: solve a system and keep the residual as the check.
	rng := rand.New(rand.NewSource(77))
	bvec := make([]float64, n)
	for i := range bvec {
		bvec[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	res, err := sparse.CG(m, x, bvec, 1e-10, 4*n)
	if err != nil {
		// Generators guarantee SPD; a failure here is a bug worth
		// surfacing loudly in any experiment that uses the app.
		panic("apps: spCG solver failed: " + err.Error())
	}
	app.Check = res.Residual
	return app
}

// partitionRows splits rows into contiguous blocks with balanced nnz.
func partitionRows(m *sparse.Matrix, k int) [][]int {
	out := make([][]int, k)
	target := m.NNZ() / int64(k)
	row := 0
	for c := 0; c < k; c++ {
		var got int64
		start := row
		for row < m.N && (got < target || c == k-1) {
			got += m.Offsets[row+1] - m.Offsets[row]
			row++
		}
		rows := make([]int, 0, row-start)
		for v := start; v < row; v++ {
			rows = append(rows, v)
		}
		out[c] = rows
	}
	return out
}

// emitSpCGIteration emits one CG iteration: SpMV(Ap, p) plus the dot
// products and AXPYs on the dense vectors.
func emitSpCGIteration(b *trace.Builder, m *sparse.Matrix, rows []int,
	rowptr, cols, vals, pvec, apvec, rvec, xvec mem.Region) {
	const (
		pcRow = pcSpCG + 0x00
		pcCol = pcSpCG + 0x04
		pcVal = pcSpCG + 0x08
		pcP   = pcSpCG + 0x0c // the irregular gather
		pcAp  = pcSpCG + 0x10
		pcDot = pcSpCG + 0x14
		pcAxp = pcSpCG + 0x18
	)
	// SpMV: Ap = A p.
	for _, i := range rows {
		b.Load(pcRow, rowptr.Base+mem.Addr(i)*8, 8, int32(rowptr.ID))
		b.Load(pcRow, rowptr.Base+mem.Addr(i+1)*8, 8, int32(rowptr.ID))
		lo, hi := m.Offsets[i], m.Offsets[i+1]
		for kk := lo; kk < hi; kk++ {
			c := m.Cols[kk]
			b.Load(pcCol, cols.Base+mem.Addr(kk)*4, 4, int32(cols.ID))
			b.Load(pcVal, vals.Base+mem.Addr(kk)*8, 8, int32(vals.ID))
			// The irregular access: p[cols[kk]].
			b.Load(pcP, pvec.Base+mem.Addr(c)*8, 8, int32(pvec.ID))
			b.Exec(2) // fused multiply-add
		}
		b.Store(pcAp, apvec.Base+mem.Addr(i)*8, 8, int32(apvec.ID))
		b.Exec(1)
	}
	// Dense phase: dot(p, Ap); x += a p; r -= a Ap; dot(r, r); p = r + b p.
	for _, i := range rows {
		b.Load(pcDot, pvec.Base+mem.Addr(i)*8, 8, int32(pvec.ID))
		b.Load(pcDot, apvec.Base+mem.Addr(i)*8, 8, int32(apvec.ID))
		b.Exec(2)
	}
	for _, i := range rows {
		b.Load(pcAxp, rvec.Base+mem.Addr(i)*8, 8, int32(rvec.ID))
		b.Store(pcAxp, xvec.Base+mem.Addr(i)*8, 8, int32(xvec.ID))
		b.Store(pcAxp, rvec.Base+mem.Addr(i)*8, 8, int32(rvec.ID))
		b.Exec(4)
	}
	for _, i := range rows {
		b.Load(pcAxp, rvec.Base+mem.Addr(i)*8, 8, int32(rvec.ID))
		b.Store(pcAxp, pvec.Base+mem.Addr(i)*8, 8, int32(pvec.ID))
		b.Exec(3)
	}
}
