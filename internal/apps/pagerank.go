package apps

import (
	"rnrsim/internal/graph"
	"rnrsim/internal/mem"
	"rnrsim/internal/prefetch"
	"rnrsim/internal/trace"
)

// PageRank builds the vertex-centric pull PageRank workload of Algorithm 1
// over g: it computes real PageRank values while emitting, per SPMD
// worker, the kernel's memory trace with RnR markers placed exactly as the
// paper's listing places them.
func PageRank(g *graph.Graph, input string, cfg Config) *App {
	return pageRank(g, input, cfg, algorithm1)
}

// pageRank is PageRank with the trace emitter as a parameter.
func pageRank(g *graph.Graph, input string, cfg Config, emit emitter) *App {
	cfg = cfg.withFloors()
	n := g.N

	// Memory layout (master process, §VI).
	l := newLayout(cfg.Offset)
	offsets := l.al.AllocPage("pr.offsets", uint64(n+1)*8)
	edges := l.al.AllocPage("pr.edges", uint64(g.M())*4)
	pcurr := l.al.AllocPage("pr.pcurr", uint64(n)*8)
	pnext := l.al.AllocPage("pr.pnext", uint64(n)*8)
	_ = l.al.AllocPage("pr.deg", uint64(n)*8) // deg array: normalisation reads fold into pnext sweeps
	// Per-core metadata: capacity for every edge to miss, plus slack.
	seqT, divT := l.metaTables(cfg.Cores, uint64(g.M())/uint64(cfg.Cores)+uint64(n)+1024)

	parts := graph.PartitionGraph(g, cfg.Cores).Parts()
	app := &App{
		Name: "pagerank", Input: input, Cores: cfg.Cores,
		InputBytes: g.InputBytes(),
		Targets:    []mem.Region{pcurr, pnext},
		EdgeRegion: edges,
		Iterations: cfg.Iterations,
	}

	// DROPLET/IMP resolver: an edge line holds 16 uint32 sources; their
	// rank values live in the *current* pcurr array. The simulator
	// rebuilds the resolver on each pointer swap via MakeResolver.
	app.MakeResolver = func(base mem.Addr) prefetch.IndirectResolver {
		return indirectResolver(edges, g.Edges, base, 8)
	}
	app.Resolve = app.MakeResolver(pcurr.Base)

	app.Traces = emit(cfg, seqT, divT, app.Targets, func(b *trace.Builder, c int, cur, next mem.Region) {
		emitPageRankIteration(b, g, parts[c], cur, next, offsets, edges)
	})

	// Real computation: one pull iteration + normalisation per iteration.
	rank := make([]float64, n)
	next := make([]float64, n)
	outdeg := make([]float64, n)
	for v := 0; v < n; v++ {
		rank[v] = 1 / float64(n)
	}
	// Out-degree of the pull graph: count appearances as a source.
	for _, s := range g.Edges {
		outdeg[s]++
	}
	for v := range outdeg {
		if outdeg[v] == 0 {
			outdeg[v] = 1
		}
	}
	for it := 0; it < cfg.Iterations; it++ {
		pullIteration(g, rank, next, outdeg)
		rank, next = next, rank
	}
	var mass float64
	for _, r := range rank {
		mass += r
	}
	app.Check = mass
	return app
}

// pullIteration runs the real numerics: next[v] = (1-a)/n + a*sum(rank[s]/outdeg[s]).
func pullIteration(g *graph.Graph, rank, next, outdeg []float64) {
	// A variable, not a constant: 1-damping must round in float64 as it
	// always has, where a constant would fold it exactly.
	damping := 0.85
	n := g.N
	base := (1 - damping) / float64(n)
	for v := 0; v < n; v++ {
		var sum float64
		for _, s := range g.Neighbors(v) {
			sum += rank[s] / outdeg[s]
		}
		next[v] = base + damping*sum
	}
}

// emitPageRankIteration emits the kernel's memory accesses for one pull
// iteration over the worker's vertices (PRUpdate of Algorithm 1).
func emitPageRankIteration(b *trace.Builder, g *graph.Graph, vertices []int,
	curr, next, offsets, edges mem.Region) {
	const (
		pcOff   = pcPageRank + 0x00
		pcEdge  = pcPageRank + 0x04
		pcCurr  = pcPageRank + 0x08
		pcNext  = pcPageRank + 0x0c
		pcNorm  = pcPageRank + 0x10
		pcNorm2 = pcPageRank + 0x14
	)
	for _, v := range vertices {
		// Load offsets[v] and offsets[v+1]; sequential 8 B entries.
		b.Load(pcOff, offsets.Base+mem.Addr(v)*8, 8, int32(offsets.ID))
		b.Load(pcOff, offsets.Base+mem.Addr(v+1)*8, 8, int32(offsets.ID))
		b.Exec(2)
		lo, hi := g.Offsets[v], g.Offsets[v+1]
		for k := lo; k < hi; k++ {
			s := g.Edges[k]
			// Load edges[k]: streaming over the 4 B edge array.
			b.Load(pcEdge, edges.Base+mem.Addr(k)*4, 4, int32(edges.ID))
			// Load pcurr[s]: THE irregular access (Alg. 1 line 13).
			b.Load(pcCurr, curr.Base+mem.Addr(s)*8, 8, int32(curr.ID))
			b.Exec(3) // divide by degree, accumulate
		}
		// Store pnext[v]: sequential writes to the local partition.
		b.Store(pcNext, next.Base+mem.Addr(v)*8, 8, int32(next.ID))
		b.Exec(2)
	}
	// PRNormalize (Alg. 1 lines 16-20): sequential sweep over own part.
	for _, v := range vertices {
		b.Load(pcNorm, next.Base+mem.Addr(v)*8, 8, int32(next.ID))
		b.Exec(4)
		b.Store(pcNorm2, next.Base+mem.Addr(v)*8, 8, int32(next.ID))
	}
}
