package graph

import "math/rand"

// The four generators mirror the paper's graph inputs (Table III):
//
//	urand     — uniform random connections, no locality (worst case for
//	            conventional prefetchers, best case for RnR's advantage)
//	amazon    — moderate-size co-purchase network: power-law-ish degrees
//	            with strong community structure (some locality)
//	com-orkut — large social network: heavy-tailed degrees, weaker
//	            communities, high average degree
//	roadUSA   — road network: tiny bounded degree, enormous diameter,
//	            near-grid structure with excellent spatial locality
//
// Sizes are parameters so the suite can scale from unit tests to
// benchmark runs.

// Uniform generates the urand graph: every vertex draws deg targets
// uniformly at random.
func Uniform(n, deg int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	adj := make([][]uint32, n)
	for v := range adj {
		ns := make([]uint32, deg)
		for i := range ns {
			ns[i] = uint32(rng.Intn(n))
		}
		adj[v] = ns
	}
	g := FromAdjacency("urand", adj)
	return g
}

// Community generates an amazon-style graph: vertices are grouped into
// communities of size comm; most edges stay inside the community (index
// locality), a fraction escapes uniformly.
func Community(n, deg, comm int, escape float64, seed int64) *Graph {
	if comm < 2 {
		comm = 2
	}
	rng := rand.New(rand.NewSource(seed))
	adj := make([][]uint32, n)
	for v := range adj {
		c := v / comm * comm
		ns := make([]uint32, deg)
		for i := range ns {
			if rng.Float64() < escape {
				ns[i] = uint32(rng.Intn(n))
			} else {
				ns[i] = uint32(c + rng.Intn(comm)%max(1, min(comm, n-c)))
			}
		}
		adj[v] = ns
	}
	g := FromAdjacency("amazon", adj)
	return g
}

// PowerLaw generates a com-orkut-style graph with a heavy-tailed degree
// distribution via preferential attachment over a sliding window, plus
// uniform noise.
func PowerLaw(n, deg int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	adj := make([][]uint32, n)
	// Repeated-targets pool implements preferential attachment cheaply.
	pool := make([]uint32, 0, n*deg/2)
	for v := range adj {
		ns := make([]uint32, deg)
		for i := range ns {
			if len(pool) > 0 && rng.Float64() < 0.6 {
				ns[i] = pool[rng.Intn(len(pool))]
			} else if v > 0 {
				ns[i] = uint32(rng.Intn(v + 1))
			}
			if len(pool) < cap(pool) {
				pool = append(pool, ns[i])
			}
		}
		adj[v] = ns
	}
	g := FromAdjacency("com-orkut", adj)
	return g
}

// Road generates a roadUSA-style graph: a w x h grid with 4-neighbour
// connectivity plus sparse diagonal shortcuts, renumbered row-major so the
// index space has the same spatial locality as a real road network's
// coordinate-sorted vertices.
func Road(w, h int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := w * h
	adj := make([][]uint32, n)
	at := func(x, y int) uint32 { return uint32(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := int(at(x, y))
			var ns []uint32
			if x > 0 {
				ns = append(ns, at(x-1, y))
			}
			if x < w-1 {
				ns = append(ns, at(x+1, y))
			}
			if y > 0 {
				ns = append(ns, at(x, y-1))
			}
			if y < h-1 {
				ns = append(ns, at(x, y+1))
			}
			// Occasional highway shortcut within a nearby band.
			if rng.Float64() < 0.05 {
				dy := rng.Intn(5) - 2
				dx := rng.Intn(9) - 4
				tx, ty := x+dx, y+dy
				if tx >= 0 && tx < w && ty >= 0 && ty < h {
					ns = append(ns, at(tx, ty))
				}
			}
			adj[v] = ns
		}
	}
	g := FromAdjacency("roadUSA", adj)
	return g
}
