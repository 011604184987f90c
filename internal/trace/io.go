package trace

import (
	"bufio"
	"encoding/binary"
	"io"
)

// Binary trace format, little endian:
//
//	magic   [4]byte  "RNRT"
//	version uint32   currently 1
//	count   uint64   number of records
//	records count × (kind u8, marker u8, aux i32 (2-byte pad before),
//	                 pc u64, addr u64, count u64)
//
// Every record takes the same 32 bytes, so an external tool can decode
// one at a fixed offset; nothing in this module reads the format back.

var magic = [4]byte{'R', 'N', 'R', 'T'}

const (
	formatVersion = 1
	headerSize    = 16
	recordSize    = 32
)

// Write serialises the records to w in the binary trace format.
func Write(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	var hdr [headerSize]byte
	copy(hdr[0:4], magic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], formatVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(recs)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [recordSize]byte
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
