package audit

// FNV-1a, 64-bit. The architectural state hasher folds every word of
// simulator state (cache tags and LRU words, DRAM queues and bank
// registers, RnR registers and statistics) into one 64-bit digest that
// the differential tests compare across execution paths (serial, -j N,
// rnrd-served). FNV-1a is used for the same reasons the Go runtime
// uses it for map seeds: trivial, allocation-free and byte-order
// independent, with good enough dispersion that a single swapped
// counter flips the digest.

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// Hash is an incremental FNV-1a 64-bit hasher. The zero value is NOT
// ready to use; construct with NewHash.
type Hash struct {
	h uint64
}

// NewHash returns a hasher at the FNV-1a offset basis.
func NewHash() *Hash { return &Hash{h: fnvOffset64} }

// Byte folds one byte.
func (h *Hash) Byte(b byte) {
	h.h = (h.h ^ uint64(b)) * fnvPrime64
}

// U64 folds one 64-bit word, little-endian byte order.
func (h *Hash) U64(v uint64) {
	for i := 0; i < 8; i++ {
		h.Byte(byte(v >> (8 * i)))
	}
}

// Sum returns the current digest. The hasher remains usable.
func (h *Hash) Sum() uint64 { return h.h }

// Mix returns the U64 method as a free function, the shape the
// component HashState hooks accept (func(uint64)) so they need no
// audit import.
func (h *Hash) Mix() func(uint64) { return h.U64 }
