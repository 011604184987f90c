package apps

import (
	"fmt"

	"rnrsim/internal/graph"
	"rnrsim/internal/sparse"
)

// Scale selects input sizes. The paper simulates 500M-instruction windows
// of full-size SNAP/SuiteSparse inputs on ChampSim; this reproduction
// scales the inputs (and the caches, see sim.ScaledConfig) so the full
// suite runs on a laptop while keeping miss ratios in the same regimes.
type Scale int

const (
	// ScaleTest is for unit tests: seconds for the whole suite.
	ScaleTest Scale = iota
	// ScaleBench is for the experiment harness: the default.
	ScaleBench
	// ScaleLarge stresses bigger footprints (optional deep runs).
	ScaleLarge
)

// ScaleNames lists the scale names ParseScale accepts, in Scale order.
var ScaleNames = []string{"test", "bench", "large"}

// ParseScale maps a scale name ("test", "bench" or "large") to its
// Scale; the CLIs' -scale flags and rnrd's wire specs share it.
func ParseScale(name string) (Scale, bool) {
	for i, n := range ScaleNames {
		if n == name {
			return Scale(i), true
		}
	}
	return 0, false
}

// GraphInput builds the single named graph input (Table III) at the
// given scale. Building one input instead of the whole Table III map
// matters once workload construction is parallel and memoised per
// (workload, input): Build must not pay for three graphs it discards.
func GraphInput(s Scale, name string) (*graph.Graph, bool) {
	var n, deg int
	switch s {
	case ScaleTest:
		n, deg = 2000, 8
	case ScaleLarge:
		n, deg = 60000, 16
	default:
		n, deg = 16000, 12
	}
	switch name {
	case "urand":
		return graph.Uniform(n, deg, 1001), true
	case "amazon":
		return graph.Community(n*3/4, deg-2, 64, 0.12, 1002), true
	case "com-orkut":
		return graph.PowerLaw(n, deg+8, 1003), true
	case "roadUSA":
		side := isqrt(n)
		return graph.Road(side*2, side, 1004), true
	}
	return nil, false
}

// GraphInputOrder is the paper's column order for graph figures.
var GraphInputOrder = []string{"urand", "amazon", "com-orkut", "roadUSA"}

// MatrixInput builds the single named spCG input (Table III) at the
// given scale. The generator parameters are chosen so the SpMV gather
// through the column indices spans far more than the (scaled) private
// caches, as the full-size SuiteSparse matrices span far more than
// 256 KB — otherwise the irregular access the paper targets never
// misses. Like GraphInput, it builds only what is asked for, so a
// parallel Suite memoising one (workload, input) pair pays for exactly
// one matrix.
func MatrixInput(s Scale, name string) (*sparse.Matrix, bool) {
	switch s {
	case ScaleTest:
		switch name {
		case "atmosmodj":
			return sparse.Stencil3D(24, 10, 6), true // z-plane 240 rows ~ 2 KB
		case "bbmat":
			return sparse.Banded(2500, 500, 0.006, 2001), true
		case "nlpkkt80":
			return sparse.BlockStencil(16, 10, 4, 3), true
		case "pdb1HYS":
			return sparse.ProteinBlocks(100, 12, 5, 2002), true
		}
	case ScaleLarge:
		switch name {
		case "atmosmodj":
			return sparse.Stencil3D(96, 72, 10), true
		case "bbmat":
			return sparse.Banded(60000, 6000, 0.0012, 2001), true
		case "nlpkkt80":
			return sparse.BlockStencil(48, 40, 6, 3), true
		case "pdb1HYS":
			return sparse.ProteinBlocks(1200, 24, 8, 2002), true
		}
	default:
		switch name {
		case "atmosmodj":
			// xy-plane 3072 rows = 24 KB > 16 KB L2.
			return sparse.Stencil3D(64, 48, 8), true
		case "bbmat":
			// band half-width 2500 rows = 20 KB span, sparse fill.
			return sparse.Banded(20000, 2500, 0.0025, 2001), true
		case "nlpkkt80":
			// block-coupled stencil, xy stride 1024 cells x 3 = 24 KB.
			return sparse.BlockStencil(32, 32, 4, 3), true
		case "pdb1HYS":
			// dense residue blocks + long-range contacts over 80 KB.
			return sparse.ProteinBlocks(500, 20, 8, 2002), true
		}
	}
	return nil, false
}

// MatrixInputOrder is the paper's column order for spCG figures.
var MatrixInputOrder = []string{"atmosmodj", "bbmat", "nlpkkt80", "pdb1HYS"}

// Build constructs the named workload ("pagerank", "hyperanf", "spcg") on
// the named input at the given scale. It builds only the requested
// input (via GraphInput/MatrixInput), so concurrent Builds memoised per
// (workload, input) never pay for inputs they discard.
func Build(workload, input string, s Scale) (*App, error) {
	return BuildConfig(workload, input, s, DefaultConfig())
}

// BuildConfig is Build under cfg. Callers start from DefaultConfig and
// change the core count (rnrsim -cores, the core-scaling sweep) or the
// offset (the multicore composer's one-core jobs).
func BuildConfig(workload, input string, s Scale, cfg Config) (*App, error) {
	switch workload {
	case "pagerank", "hyperanf":
		g, ok := GraphInput(s, input)
		if !ok {
			return nil, fmt.Errorf("apps: unknown graph input %q", input)
		}
		if workload == "pagerank" {
			return PageRank(g, input, cfg), nil
		}
		return HyperANF(g, input, cfg), nil
	case "spcg":
		m, ok := MatrixInput(s, input)
		if !ok {
			return nil, fmt.Errorf("apps: unknown matrix input %q", input)
		}
		return SpCG(m, input, cfg), nil
	}
	return nil, fmt.Errorf("apps: unknown workload %q", workload)
}

// Workloads lists the paper's three applications in presentation order.
var Workloads = []string{"pagerank", "hyperanf", "spcg"}

// InputsFor returns the input column order for a workload.
func InputsFor(workload string) []string {
	if workload == "spcg" {
		return MatrixInputOrder
	}
	return GraphInputOrder
}

func isqrt(n int) int {
	x := 1
	for x*x < n {
		x++
	}
	return x
}
