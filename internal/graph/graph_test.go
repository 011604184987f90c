package graph

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestFromAdjacencyAndValidate(t *testing.T) {
	adj := [][]uint32{{1, 2}, {0}, {}, {2, 2, 1}}
	g := FromAdjacency("t", adj)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N != 4 || g.M() != 6 {
		t.Errorf("N=%d M=%d", g.N, g.M())
	}
	if g.Degree(0) != 2 || g.Degree(2) != 0 || g.Degree(3) != 3 {
		t.Errorf("degrees %d %d %d", g.Degree(0), g.Degree(2), g.Degree(3))
	}
	ns := g.Neighbors(3)
	if len(ns) != 3 || ns[0] != 2 || ns[2] != 1 {
		t.Errorf("neighbors(3) = %v", ns)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := FromAdjacency("t", [][]uint32{{1}, {0}})
	g.Edges[0] = 9 // out of range
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted out-of-range edge")
	}
	g2 := FromAdjacency("t", [][]uint32{{1}, {0}})
	g2.Offsets[1] = 5
	if err := g2.Validate(); err == nil {
		t.Error("Validate accepted broken offsets")
	}
}

func TestGeneratorsProduceValidGraphs(t *testing.T) {
	gens := map[string]*Graph{
		"urand":     Uniform(500, 8, 1),
		"amazon":    Community(500, 8, 32, 0.15, 2),
		"com-orkut": PowerLaw(500, 16, 3),
		"roadUSA":   Road(25, 20, 4),
	}
	for name, g := range gens {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if g.N == 0 || g.M() == 0 {
			t.Errorf("%s: empty graph", name)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := Uniform(200, 6, 42)
	b := Uniform(200, 6, 42)
	if a.M() != b.M() {
		t.Fatal("same seed, different edge count")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("same seed diverges at edge %d", i)
		}
	}
	c := Uniform(200, 6, 43)
	same := true
	for i := range a.Edges {
		if i < len(c.Edges) && a.Edges[i] != c.Edges[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical graphs")
	}
}

func TestPowerLawIsHeavyTailed(t *testing.T) {
	g := PowerLaw(2000, 12, 7)
	// In-degree distribution: compute and compare max to mean.
	indeg := make([]int, g.N)
	for _, e := range g.Edges {
		indeg[e]++
	}
	maxIn, sum := 0, 0
	for _, d := range indeg {
		sum += d
		if d > maxIn {
			maxIn = d
		}
	}
	mean := float64(sum) / float64(g.N)
	if float64(maxIn) < 10*mean {
		t.Errorf("max in-degree %d vs mean %.1f: not heavy tailed", maxIn, mean)
	}
}

func TestCommunityLocality(t *testing.T) {
	comm := 64
	g := Community(1024, 8, comm, 0.1, 5)
	local := 0
	for v := 0; v < g.N; v++ {
		c := v / comm
		for _, u := range g.Neighbors(v) {
			if int(u)/comm == c {
				local++
			}
		}
	}
	frac := float64(local) / float64(g.M())
	if frac < 0.7 {
		t.Errorf("only %.2f of edges intra-community, want > 0.7", frac)
	}
}

func TestRoadDegreeBounded(t *testing.T) {
	g := Road(30, 30, 9)
	s := g.Summary()
	if s.MaxDegree > 5 {
		t.Errorf("road max degree %d, want <= 5", s.MaxDegree)
	}
	if s.AvgDegree < 3 || s.AvgDegree > 4.3 {
		t.Errorf("road avg degree %.2f", s.AvgDegree)
	}
	// Road edges must be index-local (grid neighbours or short shortcuts).
	w := 30
	for v := 0; v < g.N; v++ {
		for _, u := range g.Neighbors(v) {
			if d := int(math.Abs(float64(int(u) - v))); d > 5*w {
				t.Fatalf("road edge %d->%d spans %d", v, u, d)
			}
		}
	}
}

func TestSummaryAndInputBytes(t *testing.T) {
	g := Uniform(100, 4, 1)
	s := g.Summary()
	if s.Vertices != 100 || s.Edges != 400 {
		t.Errorf("summary %+v", s)
	}
	want := uint64(101*8 + 400*4 + 100*8)
	if g.InputBytes() != want {
		t.Errorf("InputBytes = %d, want %d", g.InputBytes(), want)
	}
}

// cutEdges counts the edges of g whose endpoints p puts in different
// parts.
func cutEdges(p *Partition, g *Graph) int64 {
	var cut int64
	for v := 0; v < g.N; v++ {
		for _, u := range g.Neighbors(v) {
			if p.Assign[v] != p.Assign[u] {
				cut++
			}
		}
	}
	return cut
}

// imbalance returns p's largest part size over the ideal n/K, minus 1.
func imbalance(p *Partition, n int) float64 {
	return float64(slices.Max(p.Sizes))/(float64(n)/float64(p.K)) - 1
}

func TestPartitionCoversAllVerticesOnce(t *testing.T) {
	for _, g := range []*Graph{Uniform(500, 8, 1), Road(25, 20, 2), PowerLaw(300, 10, 3)} {
		p := PartitionGraph(g, 4)
		seen := 0
		for v := 0; v < g.N; v++ {
			if p.Assign[v] < 0 || int(p.Assign[v]) >= 4 {
				t.Fatalf("%s: vertex %d assigned to %d", g.Name, v, p.Assign[v])
			}
			seen++
		}
		if seen != g.N {
			t.Errorf("%s: covered %d of %d", g.Name, seen, g.N)
		}
		total := 0
		for _, s := range p.Sizes {
			total += s
		}
		if total != g.N {
			t.Errorf("%s: sizes sum to %d", g.Name, total)
		}
	}
}

func TestPartitionBalance(t *testing.T) {
	g := Uniform(1000, 8, 11)
	p := PartitionGraph(g, 4)
	if imb := imbalance(p, g.N); imb > 0.15 {
		t.Errorf("imbalance %.3f > 0.15 (sizes %v)", imb, p.Sizes)
	}
}

func TestPartitionLocalityOnRoad(t *testing.T) {
	// On a grid, a locality-aware partitioner must cut far fewer edges
	// than a random assignment would (~75% cut for k=4).
	g := Road(40, 40, 13)
	p := PartitionGraph(g, 4)
	cut := float64(cutEdges(p, g)) / float64(g.M())
	if cut > 0.3 {
		t.Errorf("road cut fraction %.3f, want well under random 0.75", cut)
	}
}

func TestPartitionVerticesRoundTrip(t *testing.T) {
	g := Uniform(200, 4, 17)
	p := PartitionGraph(g, 3)
	seen := make([]bool, g.N)
	parts := p.Parts()
	if len(parts) != 3 {
		t.Fatalf("Parts() returned %d parts, want 3", len(parts))
	}
	for part, vs := range parts {
		if !slices.IsSorted(vs) {
			t.Errorf("Parts()[%d] is not ascending", part)
		}
		for _, v := range vs {
			if seen[v] {
				t.Fatalf("vertex %d in two parts", v)
			}
			seen[v] = true
			if int(p.Assign[v]) != part {
				t.Fatalf("Parts()[%d] holds a vertex of part %d", part, p.Assign[v])
			}
		}
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("vertex %d in no part", v)
		}
	}
}

func TestPartitionSinglePart(t *testing.T) {
	g := Uniform(50, 4, 23)
	p := PartitionGraph(g, 1)
	if cutEdges(p, g) != 0 {
		t.Error("k=1 partition has cut edges")
	}
	if p.Sizes[0] != g.N {
		t.Errorf("k=1 sizes %v", p.Sizes)
	}
}

func TestPartitionPropertyAssignmentTotal(t *testing.T) {
	prop := func(seed int64, kSel uint8) bool {
		k := int(kSel%6) + 1
		g := Uniform(120, 5, seed)
		p := PartitionGraph(g, k)
		total := 0
		for _, s := range p.Sizes {
			total += s
		}
		if total != g.N {
			return false
		}
		for v := 0; v < g.N; v++ {
			if p.Assign[v] < 0 || int(p.Assign[v]) >= k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
