package graph

// Partition assigns vertices to k balanced parts while keeping neighbours
// together, standing in for METIS in the paper's SPMD methodology (§VI):
// the master partitions the graph and each worker computes on its own
// part. The algorithm is multi-seed BFS growth with strict balance caps
// followed by a boundary-refinement pass — the same locality objective
// METIS optimises, implemented with stdlib only.
type Partition struct {
	K      int
	Assign []int32 // vertex -> part
	Sizes  []int
}

// PartitionGraph splits g into k parts.
func PartitionGraph(g *Graph, k int) *Partition {
	if k < 1 {
		k = 1
	}
	p := &Partition{K: k, Assign: make([]int32, g.N), Sizes: make([]int, k)}
	for i := range p.Assign {
		p.Assign[i] = -1
	}
	cap0 := (g.N + k - 1) / k

	// Seed the parts evenly across the index space (helps grid graphs)
	// and grow breadth-first under a balance cap.
	queues := make([][]int, k)
	for part := 0; part < k; part++ {
		seed := part * g.N / k
		for seed < g.N && p.Assign[seed] >= 0 {
			seed++
		}
		if seed < g.N {
			p.claim(seed, part)
			queues[part] = append(queues[part], seed)
		}
	}
	active := true
	for active {
		active = false
		for part := 0; part < k; part++ {
			if p.Sizes[part] >= cap0 || len(queues[part]) == 0 {
				continue
			}
			v := queues[part][0]
			queues[part] = queues[part][1:]
			for _, u := range g.Neighbors(v) {
				if p.Assign[u] < 0 && p.Sizes[part] < cap0 {
					p.claim(int(u), part)
					queues[part] = append(queues[part], int(u))
				}
			}
			if len(queues[part]) > 0 {
				active = true
			}
		}
	}
	// Sweep up unreachable / capped-out vertices into the least-loaded
	// part (contiguous runs keep locality).
	for v := 0; v < g.N; v++ {
		if p.Assign[v] < 0 {
			p.claim(v, p.leastLoaded())
		}
	}
	p.refine(g, 2)
	return p
}

func (p *Partition) claim(v, part int) {
	p.Assign[v] = int32(part)
	p.Sizes[part]++
}

func (p *Partition) leastLoaded() int {
	best := 0
	for i := 1; i < p.K; i++ {
		if p.Sizes[i] < p.Sizes[best] {
			best = i
		}
	}
	return best
}

// refine performs passes of greedy boundary moves that reduce cut edges
// without violating balance (a lightweight Kernighan–Lin flavour).
func (p *Partition) refine(g *Graph, passes int) {
	if p.K == 1 {
		return
	}
	capHi := (g.N+p.K-1)/p.K + g.N/(p.K*10) + 1
	counts := make([]int, p.K)
	for pass := 0; pass < passes; pass++ {
		moved := 0
		for v := 0; v < g.N; v++ {
			for i := range counts {
				counts[i] = 0
			}
			for _, u := range g.Neighbors(v) {
				counts[p.Assign[u]]++
			}
			cur := int(p.Assign[v])
			best, bestGain := cur, 0
			for part := 0; part < p.K; part++ {
				if part == cur || p.Sizes[part] >= capHi {
					continue
				}
				gain := counts[part] - counts[cur]
				if gain > bestGain {
					best, bestGain = part, gain
				}
			}
			if best != cur {
				p.Sizes[cur]--
				p.claim(v, best)
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}

// Parts returns every part's vertex list, each ascending, in one pass
// over Assign.
func (p *Partition) Parts() [][]int {
	parts := make([][]int, p.K)
	for part, size := range p.Sizes {
		parts[part] = make([]int, 0, size)
	}
	for v, a := range p.Assign {
		parts[a] = append(parts[a], v)
	}
	return parts
}
