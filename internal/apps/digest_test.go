package apps

import (
	"bytes"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"rnrsim/internal/mem"
	"rnrsim/internal/trace"
)

// workloadDigest folds everything a simulation reads from an App into
// one FNV-64a value: every record of every core's trace, Check,
// InputBytes, the target and edge regions, and the indirect resolver's
// output for every line of the edge region (rebuilt against the second
// target's base when the target ping-pongs).
func workloadDigest(app *App) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(h hash.Hash64, v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, t := range app.Traces {
		put(h, uint64(t.Len()))
		src := t.Source()
		for r, ok := src.Next(); ok; r, ok = src.Next() {
			put(h, uint64(r.Kind)|uint64(r.Marker)<<8|uint64(uint32(r.Aux))<<32)
			put(h, r.PC)
			put(h, uint64(r.Addr))
			put(h, r.Count)
		}
	}
	put(h, math.Float64bits(app.Check))
	put(h, app.InputBytes)
	put(h, uint64(app.Iterations))
	for _, t := range append(app.Targets, app.EdgeRegion) {
		put(h, uint64(t.Base))
		put(h, t.Size)
		put(h, uint64(t.ID))
	}
	resolve := func(r func(mem.Addr) []mem.Addr) {
		e := app.EdgeRegion
		for line := mem.LineAddr(e.Base); line < e.Base+mem.Addr(e.Size); line += mem.LineSize {
			out := r(line)
			put(h, uint64(len(out)))
			for _, a := range out {
				put(h, uint64(a))
			}
		}
	}
	resolve(app.Resolve)
	if app.MakeResolver != nil {
		resolve(app.MakeResolver(app.Targets[len(app.Targets)-1].Base))
	}
	return h.Sum64()
}

// TestWorkloadTraceDigests pins the exact bytes every workload emits at
// test scale, with the default core count and with one core (the shape
// the multicore composer builds). A refactor of the workload builders
// must leave every trace, Check value, footprint and resolver unchanged.
func TestWorkloadTraceDigests(t *testing.T) {
	want := map[string][2]uint64{ // default cores, 1 core
		"pagerank/urand":     {0x49b35915f1467493, 0xfe3728b94f5c866a},
		"pagerank/amazon":    {0xf79226a441e050eb, 0xf41f128c381ad532},
		"pagerank/com-orkut": {0xf6911055fee89558, 0x9996f9d30705d8ce},
		"pagerank/roadUSA":   {0xb52f77cdd211c52f, 0xf536186dbcb5d909},
		"hyperanf/urand":     {0xe54d16566c6a65ee, 0xef8df08d4d2e1045},
		"hyperanf/amazon":    {0x50756deae162f856, 0x4e9dfe7771830b7a},
		"hyperanf/com-orkut": {0x403f05dfd49fee8, 0x9538e3b155645f36},
		"hyperanf/roadUSA":   {0xa466fcdf7be4dd1c, 0x2db195accadc1227},
		"spcg/atmosmodj":     {0xea487367f6c34c81, 0x95386ce8b53e1d66},
		"spcg/bbmat":         {0x772138f4138e0944, 0xedf4e06279c66892},
		"spcg/nlpkkt80":      {0x8541ca8a824d08e0, 0x1208615363fe9594},
		"spcg/pdb1HYS":       {0x15aca572995dd03d, 0xbee4d67f17513a7},
	}
	for _, w := range Workloads {
		for _, in := range InputsFor(w) {
			key := w + "/" + in
			var got [2]uint64
			for i, cores := range []int{DefaultConfig().Cores, 1} {
				cfg := DefaultConfig()
				cfg.Cores = cores
				app, err := BuildConfig(w, in, ScaleTest, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got[i] = workloadDigest(app)
			}
			if got != want[key] {
				t.Errorf("%s: digests %#x, want %#x", key, got, want[key])
			}
		}
	}
}

// TestTracesRoundTripFileFormat writes every core's trace of every
// test-scale workload in the binary trace format (as cmd/tracegen does)
// and decodes it back: the decoder's validation accepts everything the
// workload builders emit, and the round trip is lossless.
func TestTracesRoundTripFileFormat(t *testing.T) {
	for _, w := range Workloads {
		for _, in := range InputsFor(w) {
			app, err := Build(w, in, ScaleTest)
			if err != nil {
				t.Fatal(err)
			}
			for c, tr := range app.Traces {
				recs := tr.Records()
				var buf bytes.Buffer
				if err := trace.Write(&buf, recs); err != nil {
					t.Fatal(err)
				}
				got, err := trace.Read(&buf)
				if err != nil {
					t.Fatalf("%s/%s core %d: %v", w, in, c, err)
				}
				if !slices.Equal(got, recs) {
					t.Errorf("%s/%s core %d: round trip changed the trace", w, in, c)
				}
			}
		}
	}
}
