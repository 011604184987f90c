// Package apps implements the paper's three workloads — vertex-centric
// PageRank (Ligra-style, Algorithm 1), edge-centric HyperANF (X-Stream
// style, with real HyperLogLog counters) and spCG (conjugate gradient with
// an SpMV kernel) — as *trace-emitting twins*: each app runs the real
// algorithm on real data and simultaneously emits the memory accesses its
// kernel performs on the major arrays, one trace per SPMD worker (§VI).
//
// The emitted traces include the RnR software-interface markers exactly as
// Algorithm 1 places them, so the same trace drives every configuration:
// prefetchers that ignore the markers see the plain program.
package apps

import (
	"rnrsim/internal/mem"
	"rnrsim/internal/prefetch"
	"rnrsim/internal/trace"
)

// Config parameterises a workload.
type Config struct {
	Cores      int // SPMD workers, one trace each (>= 1)
	Iterations int // total kernel iterations in the trace (>= 3)
	// Offset moves the layout's allocator base, and with it every address
	// the workload emits; a co-run builds job k at k·multicore.Stride.
	Offset mem.Addr
}

// DefaultConfig is every workload's evaluation configuration: 4 SPMD
// cores, 1 warm-up + 1 record + 3 replay iterations, at offset 0.
func DefaultConfig() Config { return Config{Cores: 4, Iterations: 5} }

// DefaultPageRank and DefaultSpCG are DefaultConfig under the names
// callers that build one workload directly use.
func DefaultPageRank() Config { return DefaultConfig() }
func DefaultSpCG() Config     { return DefaultConfig() }

// withFloors raises cfg to at least one core and the three iterations
// Algorithm 1 needs: warm-up, record and one replay.
func (cfg Config) withFloors() Config {
	cfg.Cores = max(cfg.Cores, 1)
	cfg.Iterations = max(cfg.Iterations, 3)
	return cfg
}

// App is one workload instance: per-core traces plus the layout metadata
// the domain prefetchers and the evaluation need.
type App struct {
	Name  string // "pagerank", "hyperanf", "spcg"
	Input string // "urand", "amazon", ...
	Cores int

	// Traces holds one trace per core (SPMD: same program). Each
	// distinct kernel body is stored once, and every iteration that runs
	// it refers to the same segments (see algorithm1).
	Traces []trace.Trace

	// InputBytes is the in-memory input footprint, the denominator of the
	// Fig. 13 storage overhead.
	InputBytes uint64

	// Targets are the irregularly-accessed structures RnR is pointed at.
	Targets []mem.Region
	// EdgeRegion is the streamed index/edge array (DROPLET's software
	// hint, IMP's index stream).
	EdgeRegion mem.Region
	// Resolve maps an edge/index line to the data lines it references,
	// standing in for hardware value inspection (see prefetch package).
	Resolve prefetch.IndirectResolver
	// MakeResolver rebuilds Resolve against a new target base address.
	// The simulator calls it when the program re-points boundary slot 0
	// (the p_curr/p_next swap), mirroring how DROPLET's software
	// interface would be re-programmed each iteration. Nil when the
	// target never moves.
	MakeResolver func(base mem.Addr) prefetch.IndirectResolver

	// Iterations is the total kernel iterations in the trace:
	// 1 warm-up + 1 record + (Iterations-2) replays.
	Iterations int

	// Check is an algorithm-specific correctness scalar (PageRank mass,
	// HyperANF neighbourhood estimate, CG residual) for validation.
	Check float64

	// Groups partitions cores into barrier domains for multi-programmed
	// runs: cores in the same group synchronise at iteration boundaries,
	// cores in different groups free-run against each other. Nil means
	// all cores form one SPMD group — the single-program shape every
	// app builder emits, and the only shape before internal/multicore.
	Groups [][]int
}

// Sources returns fresh trace sources over the app's per-core traces.
func (a *App) Sources() []*trace.SliceSource {
	out := make([]*trace.SliceSource, len(a.Traces))
	for i, t := range a.Traces {
		out[i] = t.Source()
	}
	return out
}

// Records returns the total dynamic record count across cores.
func (a *App) Records() int {
	n := 0
	for _, t := range a.Traces {
		n += t.Len()
	}
	return n
}

// Instructions returns the total dynamic instruction count across cores.
func (a *App) Instructions() uint64 {
	var n uint64
	for _, t := range a.Traces {
		n += t.Instructions()
	}
	return n
}

// Synthetic PC bases, one block per app so access sites never collide.
const (
	pcPageRank uint64 = 0x4000
	pcHyperANF uint64 = 0x5000
	pcSpCG     uint64 = 0x6000
)

// layout is the shared address-space plan built by each app's master.
type layout struct {
	al *mem.Allocator
}

func newLayout(offset mem.Addr) *layout { return &layout{al: mem.NewAllocator(0x1000_0000 + offset)} }

// metaTables allocates per-core RnR metadata (sequence + division tables),
// as RnR.init() does from the heap, sized for perCore recorded misses.
func (l *layout) metaTables(cores int, perCore uint64) (seq, div []mem.Region) {
	seq = make([]mem.Region, cores)
	div = make([]mem.Region, cores)
	for c := 0; c < cores; c++ {
		seq[c] = l.al.AllocPage("rnr.seq", perCore*4)
		div[c] = l.al.AllocPage("rnr.div", perCore/16*8+4096)
	}
	return seq, div
}

// emitter emits Algorithm 1's per-core traces around a workload's kernel;
// algorithm1 is the one the workloads use.
type emitter func(cfg Config, seq, div, targets []mem.Region,
	kernel func(b *trace.Builder, core int, cur, next mem.Region)) []trace.Trace

// algorithm1 emits Algorithm 1's SPMD program, one trace per core. It is
// the one place the RnR software interface (Table I) is driven; a
// workload supplies only its metadata tables, its targets and kernel,
// which emits one iteration of core's share reading cur and writing next.
// With one target (spCG's p) the boundary never moves and next is the
// zero Region. With two (PageRank's p_curr/p_next) they ping-pong: after
// every iteration but the last, slot 0 is re-pointed at the array the
// next iteration reads (Alg. 1 lines 31-33).
//
// The kernel is a pure function of its arguments, so it runs once per
// distinct (core, cur, next): once per core with one target, twice with
// two. Every iteration appends its body's segments by reference, and
// the markers between the bodies are small segments of their own.
func algorithm1(cfg Config, seq, div, targets []mem.Region,
	kernel func(b *trace.Builder, core int, cur, next mem.Region)) []trace.Trace {
	swap := len(targets) == 2
	traces := make([]trace.Trace, cfg.Cores)
	for c := range traces {
		bodies := map[[2]mem.Region]trace.Trace{}
		// Prologue, markers and epilogue take a few dozen records.
		b := trace.NewBuilder(64)
		b.Exec(64) // Init(): allocate and zero
		b.RnRInit(seq[c], div[c], 0)
		for slot, t := range targets { // slot 0 = read target, slot 1 = write target
			b.AddrBaseSet(slot, t.Base, t.Size)
		}
		b.ROIBegin()
		cur, next := targets[0], mem.Region{}
		if swap {
			next = targets[1]
		}
		for it := 0; it < cfg.Iterations; it++ {
			b.IterBegin(it)
			switch it {
			case 0: // warm-up iteration, RnR disabled
			case 1: // first target iteration: record (lines 24-25)
				b.AddrBaseEnable(0)
				b.RecordStart()
			default: // replay iterations
				b.Replay()
			}
			key := [2]mem.Region{cur, next}
			body, ok := bodies[key]
			if !ok {
				kb := trace.NewBuilder(1 << 16)
				kernel(kb, c, cur, next)
				body = kb.Trace()
				bodies[key] = body
			}
			b.Append(body)
			b.IterEnd(it)
			if swap && it < cfg.Iterations-1 {
				b.AddrBaseSet(0, next.Base, next.Size)
				b.AddrBaseSet(1, cur.Base, cur.Size)
				b.AddrBaseEnable(0)
				cur, next = next, cur
			}
		}
		b.PrefetchEnd() // line 35
		b.RnREnd()      // line 36
		b.ROIEnd()
		traces[c] = b.Trace()
	}
	return traces
}

// indirectResolver is the DROPLET/IMP resolver of a gather through an
// index array: the line of index holding idx[first:first+16] resolves to
// the distinct consecutive data lines of base[idx[i]], elem bytes each.
func indirectResolver(index mem.Region, idx []uint32, base mem.Addr, elem uint64) prefetch.IndirectResolver {
	return func(line mem.Addr) []mem.Addr {
		if !index.Contains(line) {
			return nil
		}
		first := int(uint64(line-index.Base) / 4)
		var out []mem.Addr
		var last mem.Addr
		for i := first; i < first+16 && i < len(idx); i++ {
			t := mem.LineAddr(base + mem.Addr(idx[i])*mem.Addr(elem))
			if t != last {
				out = append(out, t)
				last = t
			}
		}
		return out
	}
}
