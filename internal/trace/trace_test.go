package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"runtime"
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
	if b.Instructions() != 7+1+2 {
		t.Errorf("Instructions() = %d, want 10", b.Instructions())
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
	b.Pause()
	b.Resume()
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
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
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
		if !slices.Equal(tr.Records(), want) || tr.Len() != len(want) || src.Len() != len(want) {
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

func TestIORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 7, 1000} {
		recs := randomRecords(n, rng)
		var buf bytes.Buffer
		if err := Write(&buf, recs); err != nil {
			t.Fatalf("Write(%d records): %v", n, err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read(%d records): %v", n, err)
		}
		if len(got) != len(recs) {
			t.Fatalf("round trip count %d != %d", len(got), len(recs))
		}
		for i := range recs {
			if got[i] != recs[i] {
				t.Fatalf("record %d: got %+v want %+v", i, got[i], recs[i])
			}
		}
	}
}

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
		got, err := Read(&buf)
		return err == nil && len(got) == 1 && got[0] == rec
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("XXXX\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"),     // bad magic
		[]byte("RNRT\x99\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"),     // bad version
		[]byte("RNRT\x01\x00\x00\x00\x05\x00\x00\x00\x00\x00\x00\x00\x01"), // truncated records
		[]byte("RNRT\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00"),     // count 2^33: implausible
	}
	for i, c := range cases {
		if _, err := Read(bytes.NewReader(c)); !errors.Is(err, ErrBadTrace) {
			t.Errorf("case %d: err = %v, want ErrBadTrace", i, err)
		}
	}
}

// TestReadHugeCountBoundedMemory: a 16-byte header promising 1<<24
// records must fail as truncated without reserving room for them.
func TestReadHugeCountBoundedMemory(t *testing.T) {
	head := []byte("RNRT\x01\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00") // count 1<<24
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(head))
	runtime.ReadMemStats(&after)
	var te *TruncatedError
	if !errors.As(err, &te) {
		t.Fatalf("Read error %v, want *TruncatedError", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("Read allocated %d B for an empty body, want < 1 MB", alloc)
	}
}

// TestReadTruncationDetail pins the truncation error contract: a
// truncated stream fails with a *TruncatedError that matches both
// ErrBadTrace and io.ErrUnexpectedEOF under errors.Is and carries the
// byte offset and record index of the failing read.
func TestReadTruncationDetail(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []Record{Exec(1), Load(1, 64, 8, -1), Exec(2)}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name       string
		truncateAt int
		wantRecord uint64
		wantOffset int64
	}{
		// Mid-record: the second record is chopped in half.
		{"mid-record", 16 + 32 + 10, 1, 16 + 32},
		// Exact boundary: the stream ends cleanly after two records, but
		// the header promised three — a bare EOF must still surface as
		// io.ErrUnexpectedEOF, not a silent short stream.
		{"record-boundary", 16 + 32*2, 2, 16 + 32*2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs, err := Read(bytes.NewReader(buf.Bytes()[:tc.truncateAt]))
			if err == nil {
				t.Fatalf("truncated stream decoded to %d records without error", len(recs))
			}
			if !errors.Is(err, ErrBadTrace) {
				t.Errorf("errors.Is(err, ErrBadTrace) = false for %v", err)
			}
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("errors.Is(err, io.ErrUnexpectedEOF) = false for %v", err)
			}
			var te *TruncatedError
			if !errors.As(err, &te) {
				t.Fatalf("errors.As(*TruncatedError) = false for %v", err)
			}
			if te.Record != tc.wantRecord || te.Offset != tc.wantOffset {
				t.Errorf("TruncatedError = record %d offset %d, want record %d offset %d",
					te.Record, te.Offset, tc.wantRecord, tc.wantOffset)
			}
		})
	}
}

// TestReadTruncated: a stream cut inside a record fails with the
// record's index and byte offset.
func TestReadTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []Record{Exec(1), Exec(2)}); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:16+32+4] // header + record 0 + 4 bytes of record 1
	_, err := Read(bytes.NewReader(cut))
	if !errors.Is(err, io.ErrUnexpectedEOF) || !errors.Is(err, ErrBadTrace) {
		t.Fatalf("Read error %v does not match ErrUnexpectedEOF+ErrBadTrace", err)
	}
	var te *TruncatedError
	if !errors.As(err, &te) {
		t.Fatalf("errors.As(*TruncatedError) = false for %v", err)
	}
	if te.Record != 1 || te.Offset != 16+32 {
		t.Errorf("TruncatedError = record %d offset %d, want record 1 offset 48", te.Record, te.Offset)
	}
}

// TestReadTruncatedHeader covers a stream shorter than the header.
func TestReadTruncatedHeader(t *testing.T) {
	_, err := Read(bytes.NewReader([]byte("RNRT\x01\x00")))
	if !errors.Is(err, ErrBadTrace) {
		t.Errorf("errors.Is(err, ErrBadTrace) = false for %v", err)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("errors.Is(err, io.ErrUnexpectedEOF) = false for %v", err)
	}
}

// TestReadRejectsUnknownKind: a kind byte past KindMarker is a corrupt
// record, not a record to coerce.
func TestReadRejectsUnknownKind(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []Record{Exec(1), Exec(2)}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[headerSize+recordSize] = byte(KindMarker) + 1 // record 1's kind
	if _, err := Read(bytes.NewReader(raw)); !errors.Is(err, ErrBadTrace) {
		t.Errorf("Read = %v, want ErrBadTrace", err)
	}
}

// badMarkerTraces are traces Write accepts but the format forbids: a
// marker record naming no marker, and a non-marker record carrying a
// marker byte.
func badMarkerTraces(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, rec := range []Record{
		Mark(Marker(len(markerNames)), 0, 0, 0),
		Mark(0xEE, 0x1000, 1, 0),
		{Kind: KindLoad, Marker: 0xEE, PC: 1, Addr: 64, Count: 8, Aux: -1},
		{Kind: KindExec, Marker: MarkReplay, Count: 3},
	} {
		var buf bytes.Buffer
		if err := Write(&buf, []Record{Exec(1), rec}); err != nil {
			tb.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// TestReadRejectsBadMarkerByte: the marker byte is validated like the
// kind byte, so a record never decodes into a marker no producer emits
// or a load that hides a marker.
func TestReadRejectsBadMarkerByte(t *testing.T) {
	for i, raw := range badMarkerTraces(t) {
		recs, err := Read(bytes.NewReader(raw))
		if !errors.Is(err, ErrBadTrace) {
			t.Errorf("case %d: Read = %v, %v; want ErrBadTrace", i, recs, err)
		}
	}
	// The last marker and a marker record naming none still decode.
	var buf bytes.Buffer
	ok := []Record{Mark(MarkROIEnd, 0, 0, 0), Mark(MarkNone, 0, 0, 0)}
	if err := Write(&buf, ok); err != nil {
		t.Fatal(err)
	}
	if got, err := Read(&buf); err != nil || !slices.Equal(got, ok) {
		t.Errorf("Read = %v, %v; want %v", got, err, ok)
	}
}

// FuzzReadTrace: Read never panics, every error it returns is an
// ErrBadTrace, and whatever it accepts re-encodes and decodes to the
// same records.
func FuzzReadTrace(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, randomRecords(8, rand.New(rand.NewSource(1)))); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:headerSize+recordSize+4])
	f.Add([]byte("RNRT\x01\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00"))
	f.Add([]byte("RNRT\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("short"))
	for _, raw := range badMarkerTraces(f) {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := Read(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("Read error %v is not an ErrBadTrace", err)
			}
			return
		}
		var out bytes.Buffer
		if err := Write(&out, recs); err != nil {
			t.Fatal(err)
		}
		again, err := Read(&out)
		if err != nil {
			t.Fatalf("re-encoded trace fails to decode: %v", err)
		}
		if !slices.Equal(again, recs) {
			t.Fatalf("round trip changed the records:\n%+v\n%+v", recs, again)
		}
	})
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
