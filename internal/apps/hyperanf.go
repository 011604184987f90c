package apps

import (
	"rnrsim/internal/graph"
	"rnrsim/internal/mem"
	"rnrsim/internal/prefetch"
	"rnrsim/internal/trace"
)

// HyperANF builds the edge-centric HyperANF workload (X-Stream style
// [44]): per iteration each worker streams its partition's edge list and,
// for each edge (s -> v), unions the source sketch hll_curr[s] into the
// destination sketch hll_next[v]. The sketch arrays are the irregular RnR
// targets; the edge list is the stream DROPLET is configured with.
func HyperANF(g *graph.Graph, input string, cfg Config) *App {
	return hyperANF(g, input, cfg, algorithm1)
}

// hyperANF is HyperANF with the trace emitter as a parameter.
func hyperANF(g *graph.Graph, input string, cfg Config, emit emitter) *App {
	cfg = cfg.withFloors()
	n := g.N
	const sketchBytes = hllRegisters // 16 B per vertex

	l := newLayout()
	offsets := l.al.AllocPage("anf.offsets", uint64(n+1)*8)
	edges := l.al.AllocPage("anf.edges", uint64(g.M())*4)
	hcurr := l.al.AllocPage("anf.hcurr", uint64(n)*sketchBytes)
	hnext := l.al.AllocPage("anf.hnext", uint64(n)*sketchBytes)
	seqT, divT := l.metaTables(cfg.Cores, uint64(g.M())/uint64(cfg.Cores)*2+uint64(n)+1024)

	parts := graph.PartitionGraph(g, cfg.Cores).Parts()
	app := &App{
		Name: "hyperanf", Input: input, Cores: cfg.Cores,
		InputBytes: g.InputBytes() + uint64(n)*sketchBytes,
		Targets:    []mem.Region{hcurr, hnext},
		EdgeRegion: edges,
		Iterations: cfg.Iterations,
	}
	app.MakeResolver = func(base mem.Addr) prefetch.IndirectResolver {
		return indirectResolver(edges, g.Edges, base, sketchBytes)
	}
	app.Resolve = app.MakeResolver(hcurr.Base)

	app.Traces = emit(cfg, seqT, divT, app.Targets, func(b *trace.Builder, c int, cur, next mem.Region) {
		emitHyperANFIteration(b, g, parts[c], cur, next, offsets, edges, sketchBytes)
	})

	// Real sketches: each iteration unions every vertex's in-neighbours.
	cur := make([]HLL, n)
	nxt := make([]HLL, n)
	for v := 0; v < n; v++ {
		cur[v].Add(uint64(v))
	}
	for it := 0; it < cfg.Iterations; it++ {
		copy(nxt, cur)
		for v := 0; v < n; v++ {
			for _, s := range g.Neighbors(v) {
				nxt[v].Union(&cur[s])
			}
		}
		cur, nxt = nxt, cur
	}

	// Neighbourhood function estimate at the final radius.
	var nf float64
	for v := range cur {
		nf += cur[v].Estimate()
	}
	app.Check = nf
	return app
}

// emitHyperANFIteration emits the edge-centric kernel: stream edges, load
// the source sketch (irregular), read-modify-write the destination sketch.
func emitHyperANFIteration(b *trace.Builder, g *graph.Graph, vertices []int,
	cur, next, offsets, edges mem.Region, sketchBytes uint64) {
	const (
		pcOff  = pcHyperANF + 0x00
		pcEdge = pcHyperANF + 0x04
		pcSrc  = pcHyperANF + 0x08
		pcDst  = pcHyperANF + 0x0c
		pcDstW = pcHyperANF + 0x10
	)
	for _, v := range vertices {
		b.Load(pcOff, offsets.Base+mem.Addr(v)*8, 8, int32(offsets.ID))
		b.Exec(1)
		lo, hi := g.Offsets[v], g.Offsets[v+1]
		// Load own destination sketch once per vertex.
		b.Load(pcDst, next.Base+mem.Addr(uint64(v)*sketchBytes), sketchBytes, int32(next.ID))
		for k := lo; k < hi; k++ {
			s := g.Edges[k]
			b.Load(pcEdge, edges.Base+mem.Addr(k)*4, 4, int32(edges.ID))
			// The irregular source-sketch load.
			b.Load(pcSrc, cur.Base+mem.Addr(uint64(s)*sketchBytes), sketchBytes, int32(cur.ID))
			b.Exec(6) // 16-register max-merge, vectorised
		}
		b.Store(pcDstW, next.Base+mem.Addr(uint64(v)*sketchBytes), sketchBytes, int32(next.ID))
		b.Exec(2)
	}
}
