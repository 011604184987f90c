package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"rnrsim/internal/mem"
)

func TestBuilderCoalescesExec(t *testing.T) {
	b := NewBuilder(0)
	b.Exec(3)
	b.Exec(4)
	b.Load(1, 0x100, 8, 0)
	b.Exec(0) // no-op
	b.Exec(2)
	recs := b.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3: %v", len(recs), recs)
	}
	if recs[0].Count != 7 {
		t.Errorf("coalesced exec count = %d, want 7", recs[0].Count)
	}
	if recs[2].Count != 2 {
		t.Errorf("trailing exec count = %d, want 2", recs[2].Count)
	}
	if n := Trace(b.segs).Instructions() + instructions(b.cur); n != 7+1+2 {
		t.Errorf("instructions = %d, want 10", n)
	}
}

func TestBuilderRnRSequence(t *testing.T) {
	al := mem.NewAllocator(0x100000)
	seq := al.AllocPage("seq", 1<<16)
	div := al.AllocPage("div", 1<<10)

	b := NewBuilder(0)
	b.RnRInit(seq, div, 512)
	b.AddrBaseSet(0, 0xdead000, 4096)
	b.AddrBaseEnable(0)
	b.RecordStart()
	b.Replay()
	b.Mark(MarkPause, 0, 0, 0)
	b.Mark(MarkResume, 0, 0, 0)
	b.PrefetchEnd()
	b.RnREnd()

	want := []Marker{
		MarkInit, MarkSeqTable, MarkDivTable, MarkWindowSize,
		MarkAddrBaseSet, MarkAddrBaseEnable, MarkRecordStart, MarkReplay,
		MarkPause, MarkResume, MarkPrefetchEnd, MarkEnd,
	}
	recs := b.Records()
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d", len(recs), len(want))
	}
	for i, m := range want {
		if recs[i].Kind != KindMarker || recs[i].Marker != m {
			t.Errorf("record %d = %v, want marker %v", i, recs[i], m)
		}
	}
	if recs[1].Addr != seq.Base || recs[1].Count != seq.Size {
		t.Errorf("seq table record = %v, want base %#x size %d", recs[1], uint64(seq.Base), seq.Size)
	}
	if recs[3].Count != 512 {
		t.Errorf("window size record = %v, want count 512", recs[3])
	}
	if recs[4].Addr != 0xdead000 || recs[4].Count != 4096 || recs[4].Aux != 0 {
		t.Errorf("addrbase.set record = %v", recs[4])
	}
}

func TestSliceSource(t *testing.T) {
	recs := []Record{Exec(5), Load(1, 64, 8, -1), Store(2, 128, 8, 0)}
	s := NewSliceSource(recs)
	if n := Trace(s.segs).Len(); n != 3 {
		t.Fatalf("Len = %d", n)
	}
	var got []Record
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		got = append(got, r)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("drained %v, want %v", got, recs)
	}
	if _, ok := s.Next(); ok {
		t.Error("Next after drain returned ok")
	}
	s.Reset()
	if r, ok := s.Next(); !ok || r.Kind != KindExec {
		t.Errorf("after Reset got %v,%v", r, ok)
	}
}

// TestRecordIs32Bytes holds the in-memory record at the size of its
// on-disk form: a field order that leaves padding grows every trace by
// a quarter.
func TestRecordIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Record{}); n != recordSize {
		t.Fatalf("unsafe.Sizeof(Record{}) = %d, want %d", n, recordSize)
	}
}

// TestSegmentWalk walks multi-segment traces, with repeated and empty
// segments, against their expanded form, and checks that Len,
// Instructions and the JSON encoding all read the expanded stream.
func TestSegmentWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	body := randomRecords(5, rng)
	other := randomRecords(2, rng)
	for _, tr := range []Trace{
		nil,
		{},
		{nil},
		{body},
		{body, body},
		{nil, body, {}, other, body, nil},
		{other[:1], body, other[1:], body, body},
	} {
		var want []Record
		for _, seg := range tr {
			want = append(want, seg...)
		}
		src := tr.Source()
		for pass := 0; pass < 2; pass++ {
			var got []Record
			for r, ok := src.Next(); ok; r, ok = src.Next() {
				got = append(got, r)
			}
			if _, ok := src.Next(); ok {
				t.Fatalf("%d segments: Next after drain returned ok", len(tr))
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%d segments, pass %d: walked %v, want %v", len(tr), pass, got, want)
			}
			src.Reset()
		}
		if !slices.Equal(tr.Records(), want) || tr.Len() != len(want) || Trace(src.segs).Len() != len(want) {
			t.Fatalf("%d segments: Records/Len disagree with the expanded stream", len(tr))
		}
		if got, want := tr.Instructions(), instructions(want); got != want {
			t.Fatalf("%d segments: Instructions = %d, want %d", len(tr), got, want)
		}
		gotJSON, err := json.Marshal([]Trace{tr, {body}})
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, _ := json.Marshal([][]Record{want, body})
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("%d segments: JSON %s, want %s", len(tr), gotJSON, wantJSON)
		}
	}
}

func randomRecords(n int, rng *rand.Rand) []Record {
	recs := make([]Record, n)
	for i := range recs {
		switch rng.Intn(4) {
		case 0:
			recs[i] = Exec(uint64(rng.Intn(1000) + 1))
		case 1:
			recs[i] = Load(rng.Uint64(), mem.Addr(rng.Uint64()), 8, int32(rng.Intn(8)-1))
		case 2:
			recs[i] = Store(rng.Uint64(), mem.Addr(rng.Uint64()), 8, -1)
		default:
			recs[i] = Mark(Marker(rng.Intn(int(MarkROIEnd)+1)), mem.Addr(rng.Uint64()), rng.Uint64(), int32(rng.Int31()))
		}
	}
	return recs
}

// checkLayout fails unless raw is exactly recs in the binary format
// documented in io.go: the 16-byte header (magic, version, count), then
// one 32-byte record each with its fields at their fixed offsets.
func checkLayout(t *testing.T, raw []byte, recs []Record) {
	t.Helper()
	le := binary.LittleEndian
	if want := headerSize + recordSize*len(recs); len(raw) != want {
		t.Fatalf("%d records wrote %d bytes, want %d", len(recs), len(raw), want)
	}
	if string(raw[0:4]) != "RNRT" || le.Uint32(raw[4:8]) != 1 || le.Uint64(raw[8:16]) != uint64(len(recs)) {
		t.Fatalf("header % x, want magic RNRT, version 1, count %d", raw[:headerSize], len(recs))
	}
	for i, r := range recs {
		b := raw[headerSize+i*recordSize:][:recordSize]
		got := Record{
			Kind:   Kind(b[0]),
			Marker: Marker(b[1]),
			Aux:    int32(le.Uint32(b[4:8])),
			PC:     le.Uint64(b[8:16]),
			Addr:   mem.Addr(le.Uint64(b[16:24])),
			Count:  le.Uint64(b[24:32]),
		}
		if got != r || b[2] != 0 || b[3] != 0 {
			t.Fatalf("record %d: bytes % x decode to %+v, want %+v with zero padding", i, b, got, r)
		}
	}
}

// TestIORoundTrip: Write lays out random traces, and one record of
// every kind and every marker, as the format documents.
func TestIORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	every := []Record{Exec(3), Load(1, 64, 8, -1), Store(2, 128, 4, 7)}
	for m := MarkNone; m <= MarkROIEnd; m++ {
		every = append(every, Mark(m, mem.Addr(m)<<12, uint64(m), int32(m)-5))
	}
	for _, recs := range [][]Record{nil, randomRecords(1, rng), randomRecords(7, rng), randomRecords(1000, rng), every} {
		var buf bytes.Buffer
		if err := Write(&buf, recs); err != nil {
			t.Fatalf("Write(%d records): %v", len(recs), err)
		}
		checkLayout(t, buf.Bytes(), recs)
	}
}

// TestIORoundTripProperty: any single record's fields land at their
// documented offsets, whatever their values.
func TestIORoundTripProperty(t *testing.T) {
	prop := func(pc, addr, count uint64, aux int32, kindSel, markSel uint8) bool {
		rec := Record{
			Kind:  Kind(kindSel % 4),
			PC:    pc,
			Addr:  mem.Addr(addr),
			Count: count,
			Aux:   aux,
		}
		if rec.Kind == KindMarker { // only marker records carry a marker
			rec.Marker = Marker(markSel % uint8(MarkROIEnd+1))
		}
		var buf bytes.Buffer
		if err := Write(&buf, []Record{rec}); err != nil {
			return false
		}
		checkLayout(t, buf.Bytes(), []Record{rec})
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestRecordInstructionsAndString(t *testing.T) {
	if got := Exec(10).Instructions(); got != 10 {
		t.Errorf("Exec(10).Instructions() = %d", got)
	}
	if got := Load(1, 2, 8, -1).Instructions(); got != 1 {
		t.Errorf("load Instructions() = %d", got)
	}
	if got := Mark(MarkReplay, 0, 0, 0).Instructions(); got != 1 {
		t.Errorf("marker Instructions() = %d", got)
	}
	// String methods should not panic and should name things sensibly.
	for _, s := range []string{Exec(1).String(), Load(1, 2, 3, 4).String(), Mark(MarkPause, 0, 0, 0).String()} {
		if s == "" {
			t.Error("empty String()")
		}
	}
	if KindLoad.String() != "load" || MarkReplay.String() != "state.replay" {
		t.Errorf("names: %q %q", KindLoad, MarkReplay)
	}
}
