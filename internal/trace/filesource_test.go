package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func TestFileSourceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	recs := randomRecords(500, rng)
	path := filepath.Join(t.TempDir(), "t.rnrt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(f, recs); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Remaining() != 500 {
		t.Fatalf("Remaining = %d", s.Remaining())
	}
	for i, want := range recs {
		got, ok := s.Next()
		if !ok {
			t.Fatalf("stream ended at %d: %v", i, s.Err())
		}
		if got != want {
			t.Fatalf("record %d: %+v != %+v", i, got, want)
		}
	}
	if _, ok := s.Next(); ok {
		t.Error("Next past the end returned ok")
	}
	if s.Err() != nil {
		t.Errorf("clean drain left error %v", s.Err())
	}
}

func TestFileSourceTruncation(t *testing.T) {
	recs := []Record{Exec(1), Load(1, 64, 8, -1), Exec(2)}
	path := filepath.Join(t.TempDir(), "t.rnrt")
	f, _ := os.Create(path)
	if err := Write(f, recs); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// Chop the last record in half.
	if err := os.Truncate(path, 16+32*2+10); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		n++
	}
	if n != 2 {
		t.Errorf("read %d records from truncated file, want 2", n)
	}
	if !errors.Is(s.Err(), ErrBadTrace) {
		t.Errorf("Err = %v, want ErrBadTrace", s.Err())
	}
}

func TestFileSourceRejectsGarbageHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.rnrt")
	os.WriteFile(path, []byte("definitely not a trace"), 0o644)
	if _, err := OpenFile(path); !errors.Is(err, ErrBadTrace) {
		t.Errorf("OpenFile = %v, want ErrBadTrace", err)
	}
	if _, err := OpenFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("OpenFile accepted a missing file")
	}
}

// TestFileSourceTruncationDetail pins the hardened error contract: a
// truncated file latches a *TruncatedError that matches both ErrBadTrace
// and io.ErrUnexpectedEOF under errors.Is and carries the byte offset
// and record index of the failing read.
func TestFileSourceTruncationDetail(t *testing.T) {
	recs := []Record{Exec(1), Load(1, 64, 8, -1), Exec(2)}
	write := func(t *testing.T) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "t.rnrt")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := Write(f, recs); err != nil {
			t.Fatal(err)
		}
		f.Close()
		return path
	}

	cases := []struct {
		name       string
		truncateAt int64
		wantRead   int
		wantRecord uint64
		wantOffset int64
	}{
		// Mid-record: the second record is chopped in half.
		{"mid-record", 16 + 32 + 10, 1, 1, 16 + 32},
		// Exact boundary: the file ends cleanly after two records, but
		// the header promised three — a bare EOF must still surface as
		// io.ErrUnexpectedEOF, not a silent short stream.
		{"record-boundary", 16 + 32*2, 2, 2, 16 + 32*2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := write(t)
			if err := os.Truncate(path, tc.truncateAt); err != nil {
				t.Fatal(err)
			}
			s, err := OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			n := 0
			for {
				if _, ok := s.Next(); !ok {
					break
				}
				n++
			}
			if n != tc.wantRead {
				t.Errorf("read %d records, want %d", n, tc.wantRead)
			}
			err = s.Err()
			if err == nil {
				t.Fatal("truncated stream drained without error")
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
			if te.Record != tc.wantRecord {
				t.Errorf("Record = %d, want %d", te.Record, tc.wantRecord)
			}
			if te.Offset != tc.wantOffset {
				t.Errorf("Offset = %d, want %d", te.Offset, tc.wantOffset)
			}
			// The error latches: Next stays closed and Err stable.
			if _, ok := s.Next(); ok {
				t.Error("Next succeeded after a latched error")
			}
		})
	}
}

// TestFileSourceTruncatedHeader covers a file shorter than the header.
func TestFileSourceTruncatedHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "short.rnrt")
	if err := os.WriteFile(path, []byte("RNRT\x01\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenFile(path)
	if !errors.Is(err, ErrBadTrace) {
		t.Errorf("errors.Is(err, ErrBadTrace) = false for %v", err)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("errors.Is(err, io.ErrUnexpectedEOF) = false for %v", err)
	}
}

// TestReadTruncated mirrors the FileSource contract for the in-memory
// Read path.
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

// TestFileSourceRejectsUnknownKind holds the streaming decoder to Read's
// contract: a kind byte past KindMarker is a corrupt record, not a
// record to coerce.
func TestFileSourceRejectsUnknownKind(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []Record{Exec(1), Exec(2)}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[headerSize+recordSize] = byte(KindMarker) + 1 // record 1's kind
	path := filepath.Join(t.TempDir(), "kind.rnrt")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	n := 0
	for _, ok := fs.Next(); ok; _, ok = fs.Next() {
		n++
	}
	if n != 1 || !errors.Is(fs.Err(), ErrBadTrace) {
		t.Errorf("streamed %d records, err %v; want 1 record then ErrBadTrace", n, fs.Err())
	}
}
