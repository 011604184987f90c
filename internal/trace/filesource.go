package trace

import (
	"bufio"
	"os"
)

// FileSource streams records from a binary trace file without loading it
// into memory, so multi-gigabyte traces can drive the simulator directly.
// It implements Source; Close releases the file.
type FileSource struct {
	f         *os.File
	br        *bufio.Reader
	remaining uint64
	read      uint64 // records consumed so far
	err       error
}

// OpenFile opens a trace written by Write and validates its header.
func OpenFile(path string) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(f, 1<<16)
	count, err := readHeader(br)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileSource{f: f, br: br, remaining: count}, nil
}

// Next implements Source. The first read error latches and ends the
// stream; check Err after draining. A truncated file latches a
// *TruncatedError carrying the failing byte offset and record index
// (matching io.ErrUnexpectedEOF and ErrBadTrace under errors.Is)
// instead of surfacing a bare EOF; an unknown record kind latches an
// ErrBadTrace.
func (s *FileSource) Next() (Record, bool) {
	if s.err != nil || s.remaining == 0 {
		return Record{}, false
	}
	rec, err := readRecord(s.br, s.read)
	if err != nil {
		s.err = err
		return Record{}, false
	}
	s.read++
	s.remaining--
	return rec, true
}

// Remaining returns how many records are left to read.
func (s *FileSource) Remaining() uint64 { return s.remaining }

// Err returns the first read error, if any.
func (s *FileSource) Err() error { return s.err }

// Close releases the underlying file.
func (s *FileSource) Close() error { return s.f.Close() }
