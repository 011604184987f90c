// Package graph provides the compressed-sparse-row graphs, synthetic graph
// generators and the balanced partitioner used by the graph workloads
// (PageRank, HyperANF). The generators produce the paper's four input
// classes (Table III): a uniform random graph (urand), two power-law
// community graphs standing in for the SNAP amazon and com-orkut inputs,
// and a road-network-like grid standing in for roadUSA.
package graph

import "fmt"

// Graph is a directed graph in CSR form. For the pull-based algorithms the
// edge set is interpreted as in-edges: Neighbors(v) are the sources whose
// value v pulls.
type Graph struct {
	N       int      // number of vertices
	Offsets []int64  // len N+1; CSR row pointers
	Edges   []uint32 // len M; column indices
	Name    string
}

// M returns the number of edges.
func (g *Graph) M() int64 { return int64(len(g.Edges)) }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// Neighbors returns the adjacency slice of vertex v (shared storage).
func (g *Graph) Neighbors(v int) []uint32 {
	return g.Edges[g.Offsets[v]:g.Offsets[v+1]]
}

// Validate checks structural invariants: monotone offsets, in-range edges.
func (g *Graph) Validate() error {
	if len(g.Offsets) != g.N+1 {
		return fmt.Errorf("graph %s: %d offsets for %d vertices", g.Name, len(g.Offsets), g.N)
	}
	if g.Offsets[0] != 0 {
		return fmt.Errorf("graph %s: offsets[0] = %d", g.Name, g.Offsets[0])
	}
	for v := 0; v < g.N; v++ {
		if g.Offsets[v+1] < g.Offsets[v] {
			return fmt.Errorf("graph %s: offsets decrease at %d", g.Name, v)
		}
	}
	if g.Offsets[g.N] != g.M() {
		return fmt.Errorf("graph %s: offsets end %d != %d edges", g.Name, g.Offsets[g.N], g.M())
	}
	for i, e := range g.Edges {
		if int(e) >= g.N {
			return fmt.Errorf("graph %s: edge %d targets %d >= %d", g.Name, i, e, g.N)
		}
	}
	return nil
}

// FromAdjacency builds a CSR graph from per-vertex adjacency lists.
func FromAdjacency(name string, adj [][]uint32) *Graph {
	n := len(adj)
	g := &Graph{N: n, Offsets: make([]int64, n+1), Name: name}
	var m int64
	for v, ns := range adj {
		m += int64(len(ns))
		g.Offsets[v+1] = m
	}
	g.Edges = make([]uint32, 0, m)
	for _, ns := range adj {
		g.Edges = append(g.Edges, ns...)
	}
	return g
}

// Stats summarises a graph for Table III.
type Stats struct {
	Vertices  int
	Edges     int64
	AvgDegree float64
	MaxDegree int
	InputMB   float64 // CSR size: offsets + edges + one 8 B value per vertex
}

// Summary computes the Table III characteristics of the graph.
func (g *Graph) Summary() Stats {
	maxDeg := 0
	for v := 0; v < g.N; v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	bytes := int64(len(g.Offsets))*8 + g.M()*4 + int64(g.N)*8
	return Stats{
		Vertices:  g.N,
		Edges:     g.M(),
		AvgDegree: float64(g.M()) / float64(max(1, g.N)),
		MaxDegree: maxDeg,
		InputMB:   float64(bytes) / (1 << 20),
	}
}

// InputBytes returns the in-memory footprint of the graph plus one dense
// 8-byte vertex-value array, the denominator of Fig. 13's storage
// overhead.
func (g *Graph) InputBytes() uint64 {
	return uint64(len(g.Offsets))*8 + uint64(g.M())*4 + uint64(g.N)*8
}
