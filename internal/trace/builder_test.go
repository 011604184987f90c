package trace

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"rnrsim/internal/mem"
)

// appendOracle is the naive reference Builder: one slice grown by
// append, with the same Exec coalescing rule. sealed marks a last
// record that came from an appended trace, which an Exec never merges
// into.
type appendOracle struct {
	recs   []Record
	sealed bool
}

func (o *appendOracle) exec(n uint64) {
	if n == 0 {
		return
	}
	if k := len(o.recs); k > 0 && o.recs[k-1].Kind == KindExec && !o.sealed {
		o.recs[k-1].Count += n
		return
	}
	o.recs = append(o.recs, Exec(n))
	o.sealed = false
}

func (o *appendOracle) instructions() uint64 {
	var n uint64
	for _, r := range o.recs {
		n += r.Instructions()
	}
	return n
}

// TestBuilderMatchesAppendOracle drives random Exec/Load/Store/Mark/
// Append sequences through small-chunk Builders, so the sequences cross
// many chunk boundaries, and checks every view of the trace against the
// oracle, including joins taken mid-build and then appended to again.
// The appended traces end in an Exec, and must come out unchanged.
func TestBuilderMatchesAppendOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shared := []Trace{
		{{Load(1, 64, 8, 0), Exec(2)}},
		{{Exec(4)}, {Store(2, 128, 8, 1), Exec(1)}},
	}
	snapshots := []([]Record){shared[0].Records(), shared[1].Records()}
	crossMerges := 0
	for trial := 0; trial < 400; trial++ {
		chunk := 1 + rng.Intn(5)
		b := NewBuilder(chunk)
		var o appendOracle
		ops := rng.Intn(60)
		for i := 0; i < ops; i++ {
			if rng.Intn(8) == 0 {
				k := rng.Intn(len(shared))
				b.Append(shared[k])
				o.recs = append(o.recs, snapshots[k]...)
				o.sealed = true
				continue
			}
			switch rng.Intn(6) {
			case 0, 1:
				n := uint64(rng.Intn(4)) // includes the no-op Exec(0)
				if n > 0 && len(b.cur) == cap(b.cur) && len(b.cur) > 0 && b.cur[len(b.cur)-1].Kind == KindExec {
					crossMerges++
				}
				b.Exec(n)
				o.exec(n)
			case 2:
				pc, addr, region := rng.Uint64(), mem.Addr(rng.Uint64()), int32(rng.Intn(4)-1)
				b.Load(pc, addr, 8, region)
				o.recs = append(o.recs, Load(pc, addr, 8, region))
				o.sealed = false
			case 3:
				pc, addr := rng.Uint64(), mem.Addr(rng.Uint64())
				b.Store(pc, addr, 4, 0)
				o.recs = append(o.recs, Store(pc, addr, 4, 0))
				o.sealed = false
			case 4:
				m, addr := Marker(rng.Intn(int(MarkROIEnd)+1)), mem.Addr(rng.Intn(3)*64)
				b.Mark(m, addr, uint64(i), int32(i))
				o.recs = append(o.recs, Mark(m, addr, uint64(i), int32(i)))
				o.sealed = false
			default:
				if rng.Intn(4) == 0 {
					checkBuilder(t, trial, b, &o)
				}
			}
			if b.Len() != len(o.recs) {
				t.Fatalf("trial %d op %d: Len() = %d, oracle %d", trial, i, b.Len(), len(o.recs))
			}
		}
		if got := b.Trace().Records(); !slices.Equal(got, o.recs) {
			t.Fatalf("trial %d: Trace() = %v, oracle %v", trial, got, o.recs)
		}
		for k := range shared {
			if !slices.Equal(shared[k].Records(), snapshots[k]) {
				t.Fatalf("trial %d: appended trace %d changed to %v", trial, k, shared[k].Records())
			}
		}
		checkBuilder(t, trial, b, &o)
		// A second join is a no-op: same backing array, nothing copied.
		first := b.Records()
		if again := b.Records(); len(first) > 0 && &again[0] != &first[0] {
			t.Fatalf("trial %d: second Records() copied the trace", trial)
		}
		src := b.Source()
		for i := 0; ; i++ {
			r, ok := src.Next()
			if !ok {
				if i != len(o.recs) {
					t.Fatalf("trial %d: Source() drained after %d records, oracle %d", trial, i, len(o.recs))
				}
				break
			}
			if r != o.recs[i] {
				t.Fatalf("trial %d: Source() record %d = %v, oracle %v", trial, i, r, o.recs[i])
			}
		}
	}
	if crossMerges == 0 {
		t.Fatal("no Exec merged into a full chunk's last record; the test lost its boundary coverage")
	}
}

func checkBuilder(t *testing.T, trial int, b *Builder, o *appendOracle) {
	t.Helper()
	if got, want := Trace(b.segs).Instructions()+instructions(b.cur), o.instructions(); got != want {
		t.Fatalf("trial %d: instructions = %d, oracle %d", trial, got, want)
	}
	recs := b.Records()
	if len(recs) != len(o.recs) || cap(recs) != len(recs) {
		t.Fatalf("trial %d: Records() len %d cap %d, oracle len %d", trial, len(recs), cap(recs), len(o.recs))
	}
	for i := range recs {
		if recs[i] != o.recs[i] {
			t.Fatalf("trial %d: record %d = %v, oracle %v", trial, i, recs[i], o.recs[i])
		}
	}
	if b.Len() != len(o.recs) {
		t.Fatalf("trial %d: Len() after join = %d, oracle %d", trial, b.Len(), len(o.recs))
	}
}

// TestAppendSealsSharedSegment checks that an appended trace is shared,
// not copied, and that nothing the builder does afterwards writes into
// it: an Exec that follows starts a record of its own instead of merging
// into the shared last Exec, in the chunk the shared body came from and
// in one whose spare capacity follows the run Append cut off.
func TestAppendSealsSharedSegment(t *testing.T) {
	kb := NewBuilder(4)
	for i := 0; i < 5; i++ {
		kb.Load(0x40, mem.Addr(i)*8, 8, 0)
		kb.Exec(2)
	}
	body := kb.Trace()
	snapshot := body.Records()
	if last := snapshot[len(snapshot)-1]; last.Kind != KindExec {
		t.Fatalf("body ends in %v, want an Exec", last)
	}

	b := NewBuilder(64)
	b.Exec(7)
	b.Append(body)
	b.Exec(3)
	b.Mark(MarkIterEnd, 0, 0, 0)
	b.Append(body)
	b.Exec(5)
	tr := b.Trace()

	if !slices.Equal(body.Records(), snapshot) {
		t.Fatalf("shared body changed: %v, was %v", body.Records(), snapshot)
	}
	want := append([]Record{Exec(7)}, snapshot...)
	want = append(want, Exec(3), Mark(MarkIterEnd, 0, 0, 0))
	want = append(want, snapshot...)
	want = append(want, Exec(5))
	if got := tr.Records(); !slices.Equal(got, want) {
		t.Fatalf("stream %v, want %v", got, want)
	}
	for _, seg := range body {
		n := 0
		for _, s := range tr {
			if len(s) > 0 && &s[0] == &seg[0] {
				n++
			}
		}
		if n != 2 {
			t.Fatalf("body segment occurs %d times by reference, want 2", n)
		}
	}
	// The builder's Records view copies the shared body; an Exec merged
	// into its copy leaves the body alone too.
	b.Append(body)
	b.Records()
	b.Exec(1)
	if !slices.Equal(body.Records(), snapshot) {
		t.Fatalf("shared body changed after Records: %v, was %v", body.Records(), snapshot)
	}
}

// benchRecords is the trace length of the Builder and SliceSource
// benchmarks: just under four of the 1<<16-record chunks the workload
// generators use, so the trace fills exactly four chunks.
const benchRecords = 4<<16 - 16

// emitBenchTrace writes benchRecords records in the generators' shape:
// short Exec bundles between loads, the odd store and marker.
func emitBenchTrace(b *Builder) {
	for i := 0; b.Len() < benchRecords; i++ {
		b.Exec(3)
		b.Load(0x40, mem.Addr(i)*8, 8, 0)
		if i%8 == 0 {
			b.Store(0x44, mem.Addr(i)*8, 8, 1)
		}
		if i%1024 == 0 {
			b.IterBegin(i)
		}
	}
}

// BenchmarkBuilderAppend measures building a trace and joining it, per
// record. B/record is a deterministic allocation counter: 32 B for the
// chunk write plus 32 B for the exact-size join.
func BenchmarkBuilderAppend(b *testing.B) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	records := 0
	for i := 0; i < b.N; i++ {
		bd := NewBuilder(1 << 16)
		emitBenchTrace(bd)
		records += len(bd.Records())
	}
	elapsed := time.Since(start)
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(records), "ns/record")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(records), "B/record")
}

// sliceSourceSink keeps BenchmarkSliceSourceNext's record reads live.
var sliceSourceSink uint64

// BenchmarkSliceSourceNext measures the core's decode path, per record.
func BenchmarkSliceSourceNext(b *testing.B) {
	bd := NewBuilder(1 << 16)
	emitBenchTrace(bd)
	src := bd.Source()
	b.ResetTimer()
	start := time.Now()
	records := 0
	var sum uint64
	for i := 0; i < b.N; i++ {
		src.Reset()
		for {
			r, ok := src.Next()
			if !ok {
				break
			}
			sum += r.Count
			records++
		}
	}
	b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(records), "ns/record")
	sliceSourceSink = sum
}
