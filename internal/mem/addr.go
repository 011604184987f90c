// Package mem provides the address arithmetic, region bookkeeping and
// memory-request plumbing shared by every component of the simulator.
//
// The package is a leaf: caches, DRAM, cores and prefetchers all speak in
// terms of mem.Addr lines and exchange *mem.Request values, so none of them
// need to import each other.
package mem

// Addr is a virtual or physical byte address. The simulator does not model
// paging faults, so a single flat address space is shared and "virtual to
// physical" translation is the identity plus a TLB-latency charge.
type Addr uint64

// Geometry of the simulated memory system. These match the paper's baseline
// (Table II): 64 B cache lines, 4 KB OS pages, and the 4 MB metadata pages
// RnR uses to amortise TLB lookups during sequence-table streaming.
const (
	LineShift = 6
	LineSize  = 1 << LineShift // 64 B
	PageShift = 12
	PageSize  = 1 << PageShift // 4 KB
	HugeShift = 22
	HugeSize  = 1 << HugeShift // 4 MB metadata pages (paper §V-A)
)

// LineAddr returns the address of the first byte of a's cache line.
func LineAddr(a Addr) Addr { return a &^ (LineSize - 1) }

// HugeAddr returns the address of the first byte of a's 4 MB metadata page.
func HugeAddr(a Addr) Addr { return a &^ (HugeSize - 1) }

// AlignUp rounds a up to the next multiple of align (a power of two).
func AlignUp(a Addr, align Addr) Addr {
	return (a + align - 1) &^ (align - 1)
}
