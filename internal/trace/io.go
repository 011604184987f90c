package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"rnrsim/internal/mem"
)

// Binary trace format, little endian:
//
//	magic   [4]byte  "RNRT"
//	version uint32   currently 1
//	count   uint64   number of records
//	records count × (kind u8, marker u8, aux i32 (2-byte pad before),
//	                 pc u64, addr u64, count u64)
//
// The fixed 32-byte record keeps the reader trivial; traces compress well
// externally if needed.

var magic = [4]byte{'R', 'N', 'R', 'T'}

const (
	formatVersion = 1
	headerSize    = 16
	recordSize    = 32
)

// ErrBadTrace is returned when a trace stream fails validation.
var ErrBadTrace = errors.New("trace: malformed trace stream")

// TruncatedError reports a trace stream that ended before the record
// count promised by its header was delivered. It carries the byte
// offset at which the failing read started and the zero-based index of
// the record being read, so a corrupted multi-gigabyte trace can be
// diagnosed (and possibly salvaged up to the offset) without re-parsing
// it. errors.Is matches it against both ErrBadTrace and
// io.ErrUnexpectedEOF.
type TruncatedError struct {
	Offset int64  // byte offset of the failed record read
	Record uint64 // zero-based index of the record being read
	Err    error  // underlying read error
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("trace: truncated stream at record %d (byte offset %d): %v",
		e.Record, e.Offset, e.Err)
}

// Unwrap lets errors.Is(err, ErrBadTrace) and
// errors.Is(err, io.ErrUnexpectedEOF) both succeed.
func (e *TruncatedError) Unwrap() []error {
	return []error{ErrBadTrace, io.ErrUnexpectedEOF}
}

// truncated builds the TruncatedError for a failed read of record i,
// normalising a clean io.EOF (the stream ended exactly on a record
// boundary, but the header promised more) to io.ErrUnexpectedEOF.
func truncated(i uint64, err error) error {
	if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		err = io.ErrUnexpectedEOF
	}
	return &TruncatedError{
		Offset: headerSize + int64(i)*recordSize,
		Record: i,
		Err:    err,
	}
}

// Write serialises the records to w in the binary trace format.
func Write(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], formatVersion)
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(len(recs)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [32]byte
	for _, r := range recs {
		buf[0] = byte(r.Kind)
		buf[1] = byte(r.Marker)
		buf[2], buf[3] = 0, 0
		binary.LittleEndian.PutUint32(buf[4:8], uint32(r.Aux))
		binary.LittleEndian.PutUint64(buf[8:16], r.PC)
		binary.LittleEndian.PutUint64(buf[16:24], uint64(r.Addr))
		binary.LittleEndian.PutUint64(buf[24:32], r.Count)
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read deserialises a complete trace from r. The slice grows as records
// arrive, so a header that promises more records than the stream holds
// costs no more memory than the records actually read.
func Read(r io.Reader) ([]Record, error) {
	br := bufio.NewReader(r)
	count, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	recs := make([]Record, 0, min(count, 4096))
	for i := uint64(0); i < count; i++ {
		rec, err := readRecord(br, i)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// readHeader reads and validates the trace header, returning the
// record count it promises.
func readHeader(br *bufio.Reader) (uint64, error) {
	head, err := br.Peek(headerSize)
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, fmt.Errorf("%w: short header: %w", ErrBadTrace, err)
	}
	if [4]byte(head[0:4]) != magic {
		return 0, fmt.Errorf("%w: bad magic %q", ErrBadTrace, head[0:4])
	}
	if v := binary.LittleEndian.Uint32(head[4:8]); v != formatVersion {
		return 0, fmt.Errorf("%w: unsupported version %d", ErrBadTrace, v)
	}
	count := binary.LittleEndian.Uint64(head[8:16])
	const maxRecords = 1 << 32
	if count > maxRecords {
		return 0, fmt.Errorf("%w: implausible record count %d", ErrBadTrace, count)
	}
	br.Discard(headerSize) // cannot fail: Peek buffered these bytes
	return count, nil
}

// readRecord reads and decodes record i. Peek decodes in place in the
// reader's buffer, so a record costs no allocation.
func readRecord(br *bufio.Reader, i uint64) (Record, error) {
	buf, err := br.Peek(recordSize)
	if err != nil {
		return Record{}, truncated(i, err)
	}
	rec := Record{
		Kind:   Kind(buf[0]),
		Marker: Marker(buf[1]),
		Aux:    int32(binary.LittleEndian.Uint32(buf[4:8])),
		PC:     binary.LittleEndian.Uint64(buf[8:16]),
		Addr:   mem.Addr(binary.LittleEndian.Uint64(buf[16:24])),
		Count:  binary.LittleEndian.Uint64(buf[24:32]),
	}
	if rec.Kind > KindMarker {
		return Record{}, fmt.Errorf("%w: unknown kind %d at record %d", ErrBadTrace, rec.Kind, i)
	}
	br.Discard(recordSize) // cannot fail: Peek buffered these bytes
	return rec, nil
}
