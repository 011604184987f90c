// Package sparse provides compressed-sparse-row matrices, synthetic
// generators matching the paper's SuiteSparse inputs (Table III), sparse
// matrix-vector multiplication and a conjugate-gradient solver — the spCG
// workload's numerical substrate.
package sparse

import (
	"fmt"
	"math"
)

// Matrix is a square sparse matrix in CSR form.
type Matrix struct {
	N       int
	Offsets []int64   // len N+1
	Cols    []uint32  // len NNZ
	Vals    []float64 // len NNZ
	Name    string
}

// NNZ returns the number of stored nonzeros.
func (m *Matrix) NNZ() int64 { return int64(len(m.Cols)) }

// Row returns the column indices and values of row i (shared storage).
func (m *Matrix) Row(i int) ([]uint32, []float64) {
	lo, hi := m.Offsets[i], m.Offsets[i+1]
	return m.Cols[lo:hi], m.Vals[lo:hi]
}

// Validate checks CSR invariants: monotone offsets, in-range and sorted
// columns, matching array lengths.
func (m *Matrix) Validate() error {
	if len(m.Offsets) != m.N+1 {
		return fmt.Errorf("sparse %s: %d offsets for n=%d", m.Name, len(m.Offsets), m.N)
	}
	if len(m.Cols) != len(m.Vals) {
		return fmt.Errorf("sparse %s: %d cols vs %d vals", m.Name, len(m.Cols), len(m.Vals))
	}
	if m.Offsets[0] != 0 || m.Offsets[m.N] != m.NNZ() {
		return fmt.Errorf("sparse %s: offset bounds [%d..%d] for nnz=%d", m.Name, m.Offsets[0], m.Offsets[m.N], m.NNZ())
	}
	for i := 0; i < m.N; i++ {
		if m.Offsets[i+1] < m.Offsets[i] {
			return fmt.Errorf("sparse %s: offsets decrease at row %d", m.Name, i)
		}
		cols, _ := m.Row(i)
		for j, c := range cols {
			if int(c) >= m.N {
				return fmt.Errorf("sparse %s: row %d col %d out of range", m.Name, i, c)
			}
			if j > 0 && cols[j-1] >= c {
				return fmt.Errorf("sparse %s: row %d columns not strictly sorted", m.Name, i)
			}
		}
	}
	return nil
}

// SpMV computes y = A*x.
func (m *Matrix) SpMV(y, x []float64) {
	for i := 0; i < m.N; i++ {
		var sum float64
		lo, hi := m.Offsets[i], m.Offsets[i+1]
		for k := lo; k < hi; k++ {
			sum += m.Vals[k] * x[m.Cols[k]]
		}
		y[i] = sum
	}
}

// InputBytes returns the matrix footprint plus two dense vectors, the
// Fig. 13 storage-overhead denominator for spCG.
func (m *Matrix) InputBytes() uint64 {
	return uint64(len(m.Offsets))*8 + uint64(m.NNZ())*(4+8) + uint64(2*m.N)*8
}

// Stats summarises the matrix for Table III.
type Stats struct {
	N          int
	NNZ        int64
	AvgPerRow  float64
	Bandwidth  int // max |i - j| over stored entries
	InputMB    float64
	SPDChecked bool
}

// Summary computes Table III characteristics.
func (m *Matrix) Summary() Stats {
	band := 0
	for i := 0; i < m.N; i++ {
		cols, _ := m.Row(i)
		for _, c := range cols {
			if d := int(math.Abs(float64(int(c) - i))); d > band {
				band = d
			}
		}
	}
	return Stats{
		N:         m.N,
		NNZ:       m.NNZ(),
		AvgPerRow: float64(m.NNZ()) / float64(max(1, m.N)),
		Bandwidth: band,
		InputMB:   float64(m.InputBytes()) / (1 << 20),
	}
}

// Dot returns the inner product of two vectors.
func Dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm.
func Norm2(a []float64) float64 { return math.Sqrt(Dot(a, a)) }

// Axpy computes y += alpha*x.
func Axpy(y []float64, alpha float64, x []float64) {
	for i := range y {
		y[i] += alpha * x[i]
	}
}
