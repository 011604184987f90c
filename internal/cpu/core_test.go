package cpu

import (
	"testing"

	"rnrsim/internal/mem"
	"rnrsim/internal/trace"
)

// stubMem completes loads after a fixed latency and lets tests vary the
// latency per line to mimic hits and misses.
type stubMem struct {
	latency   map[mem.Addr]uint64
	def       uint64
	clock     uint64
	inflight  []*mem.Request
	finish    []uint64
	accepted  int
	rejectAll bool
}

func newStubMem(def uint64) *stubMem {
	return &stubMem{latency: map[mem.Addr]uint64{}, def: def}
}

func (s *stubMem) TryEnqueue(r *mem.Request) bool {
	if s.rejectAll {
		return false
	}
	s.accepted++
	lat, ok := s.latency[r.Line]
	if !ok {
		lat = s.def
	}
	s.inflight = append(s.inflight, r)
	s.finish = append(s.finish, s.clock+lat)
	return true
}

func (s *stubMem) Tick(now uint64) {
	s.clock = now
	kept, keptFin := s.inflight[:0], s.finish[:0]
	for i, r := range s.inflight {
		if s.finish[i] <= now {
			r.Complete(now)
		} else {
			kept = append(kept, r)
			keptFin = append(keptFin, s.finish[i])
		}
	}
	s.inflight, s.finish = kept, keptFin
}

// newCore builds a core on a clock of its own, at slot 0 with the walk
// past it, so the core's position is the clock's cycle.
func newCore(id int, cfg Config, src trace.Source, l1 mem.Backend) *Core {
	c := New(id, cfg, src, l1)
	c.BindClock(&mem.Clock{Cursor: 1}, 0)
	return c
}

// tick ticks c at cycle now, moving its clock there first.
func tick(c *Core, now uint64) {
	c.clk.Cycle = now
	c.Tick(now)
}

func runCore(c *Core, m *stubMem, budget int) uint64 {
	var now uint64
	for i := 0; i < budget && !c.Done(); i++ {
		now++
		tick(c, now)
		m.Tick(now)
	}
	return now
}

func TestExecOnlyIPC(t *testing.T) {
	b := trace.NewBuilder(0)
	b.Exec(4000)
	m := newStubMem(1)
	c := newCore(0, Default(), b.Source(), m)
	runCore(c, m, 10000)
	if !c.Done() {
		t.Fatal("core never finished")
	}
	if c.Stats.Instructions != 4000 {
		t.Errorf("instructions = %d, want 4000", c.Stats.Instructions)
	}
	ipc := float64(c.Stats.Instructions) / float64(c.Stats.Cycles)
	if ipc < 3.5 || ipc > 4.0 {
		t.Errorf("exec-only IPC = %.2f, want close to 4", ipc)
	}
}

func TestLoadLatencyStallsROBHead(t *testing.T) {
	// One long-latency load followed by dependent-free exec work: the
	// core keeps fetching (OoO) but cannot retire past the load.
	b := trace.NewBuilder(0)
	b.Load(1, 0x1000, 8, -1)
	b.Exec(100)
	m := newStubMem(1)
	m.latency[0x1000] = 500
	c := newCore(0, Default(), b.Source(), m)
	runCore(c, m, 5000)
	if !c.Done() {
		t.Fatal("core never finished")
	}
	if c.Stats.Cycles < 500 {
		t.Errorf("cycles = %d, want >= 500 (load latency exposed)", c.Stats.Cycles)
	}
}

func TestMemoryLevelParallelism(t *testing.T) {
	// N independent long loads should overlap: total time ~ latency, not
	// N*latency.
	const n = 16
	const lat = 400
	b := trace.NewBuilder(0)
	for i := 0; i < n; i++ {
		b.Load(uint64(i), mem.Addr(0x1000+i*0x40), 8, -1)
	}
	m := newStubMem(lat)
	c := newCore(0, Default(), b.Source(), m)
	runCore(c, m, 100000)
	if !c.Done() {
		t.Fatal("core never finished")
	}
	if c.Stats.Cycles > 2*lat {
		t.Errorf("16 independent loads took %d cycles; MLP missing (lat=%d)", c.Stats.Cycles, lat)
	}
	if c.Stats.Loads != n {
		t.Errorf("loads = %d, want %d", c.Stats.Loads, n)
	}
}

func TestLSQBoundsOutstandingLoads(t *testing.T) {
	cfg := Default()
	cfg.LSQ = 2
	const n = 8
	const lat = 100
	b := trace.NewBuilder(0)
	for i := 0; i < n; i++ {
		b.Load(uint64(i), mem.Addr(0x1000+i*0x40), 8, -1)
	}
	m := newStubMem(lat)
	c := newCore(0, cfg, b.Source(), m)
	runCore(c, m, 100000)
	if !c.Done() {
		t.Fatal("core never finished")
	}
	// With LSQ=2, at most 2 loads overlap: >= n/2 * lat cycles.
	if c.Stats.Cycles < (n/2)*lat {
		t.Errorf("LSQ=2 with %d loads took only %d cycles", n, c.Stats.Cycles)
	}
}

func TestStoresRetireWithoutWaiting(t *testing.T) {
	b := trace.NewBuilder(0)
	b.Store(1, 0x2000, 8, -1)
	b.Exec(8)
	m := newStubMem(1)
	m.latency[0x2000] = 1000
	c := newCore(0, Default(), b.Source(), m)
	runCore(c, m, 5000)
	if !c.Done() {
		t.Fatal("core never finished")
	}
	if c.Stats.Cycles > 100 {
		t.Errorf("store blocked retirement: %d cycles", c.Stats.Cycles)
	}
	if c.Stats.Stores != 1 {
		t.Errorf("stores = %d", c.Stats.Stores)
	}
}

func TestMarkersDeliveredInOrder(t *testing.T) {
	b := trace.NewBuilder(0)
	b.RecordStart()
	b.Exec(10)
	b.Replay()
	b.PrefetchEnd()
	m := newStubMem(1)
	c := newCore(0, Default(), b.Source(), m)
	var got []trace.Marker
	c.OnMarker = func(rec trace.Record, cycle uint64) { got = append(got, rec.Marker) }
	runCore(c, m, 1000)
	want := []trace.Marker{trace.MarkRecordStart, trace.MarkReplay, trace.MarkPrefetchEnd}
	if len(got) != len(want) {
		t.Fatalf("markers %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("marker %d = %v, want %v", i, got[i], want[i])
		}
	}
	if c.Stats.Markers != 3 {
		t.Errorf("marker count = %d", c.Stats.Markers)
	}
}

func TestPreAccessSeesEveryDemand(t *testing.T) {
	b := trace.NewBuilder(0)
	b.Load(1, 0x100, 8, 2)
	b.Store(2, 0x200, 8, 3)
	m := newStubMem(1)
	c := newCore(0, Default(), b.Source(), m)
	var seen []mem.Addr
	c.PreAccess = func(r *mem.Request) {
		seen = append(seen, r.Addr)
		r.StructFlag = true
	}
	runCore(c, m, 1000)
	if len(seen) != 2 || seen[0] != 0x100 || seen[1] != 0x200 {
		t.Errorf("PreAccess saw %v", seen)
	}
}

func TestRegionIDPropagates(t *testing.T) {
	b := trace.NewBuilder(0)
	b.Load(1, 0x100, 8, 7)
	m := newStubMem(1)
	c := newCore(0, Default(), b.Source(), m)
	var region int
	c.PreAccess = func(r *mem.Request) { region = r.RegionID }
	runCore(c, m, 100)
	if region != 7 {
		t.Errorf("region = %d, want 7", region)
	}
}

func TestBackpressureFromL1DoesNotLoseRecords(t *testing.T) {
	b := trace.NewBuilder(0)
	for i := 0; i < 5; i++ {
		b.Load(uint64(i), mem.Addr(0x100*(i+1)), 8, -1)
	}
	m := newStubMem(1)
	m.rejectAll = true
	c := newCore(0, Default(), b.Source(), m)
	for i := 1; i <= 10; i++ {
		tick(c, uint64(i))
		m.Tick(uint64(i))
	}
	if c.Stats.Loads != 0 {
		t.Fatalf("loads dispatched against a full L1: %d", c.Stats.Loads)
	}
	m.rejectAll = false
	runCore(c, m, 1000)
	if !c.Done() {
		t.Fatal("core never finished after backpressure lifted")
	}
	if c.Stats.Loads != 5 || m.accepted != 5 {
		t.Errorf("loads = %d accepted = %d, want 5/5", c.Stats.Loads, m.accepted)
	}
}

func TestInstructionAccounting(t *testing.T) {
	b := trace.NewBuilder(0)
	b.Exec(100)
	b.Load(1, 0x40, 8, -1)
	b.Store(2, 0x80, 8, -1)
	b.IterBegin(0)
	b.IterEnd(0)
	m := newStubMem(3)
	c := newCore(0, Default(), b.Source(), m)
	runCore(c, m, 10000)
	want := uint64(100 + 2 + 2)
	if c.Stats.Instructions != want {
		t.Errorf("instructions = %d, want %d", c.Stats.Instructions, want)
	}
	if n := b.Trace().Instructions(); c.Stats.Instructions != n {
		t.Errorf("core retired %d, builder says %d", c.Stats.Instructions, n)
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted invalid config")
		}
	}()
	New(0, Config{}, trace.NewSliceSource(nil), newStubMem(1))
}
