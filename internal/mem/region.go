package mem

import "fmt"

// Region names a contiguous range of the simulated address space that a
// workload allocated for one of its data structures (a vertex array, the
// CSR column index, the RnR sequence table, ...). Regions are what the
// RnR boundary registers point at and what domain prefetchers such as
// DROPLET are configured with.
type Region struct {
	ID   int
	Name string
	Base Addr
	Size uint64
}

// Contains reports whether byte address a falls inside the region.
func (r Region) Contains(a Addr) bool {
	return a >= r.Base && a < r.Base+Addr(r.Size)
}

// End returns the first byte address past the region.
func (r Region) End() Addr { return r.Base + Addr(r.Size) }

func (r Region) String() string {
	return fmt.Sprintf("%s[%#x..%#x)", r.Name, uint64(r.Base), uint64(r.End()))
}

// Allocator is a bump allocator over the simulated virtual address space.
// Workloads use it at "program start" to lay out their arrays exactly once;
// the resulting bases feed both the trace generator and the RnR boundary
// registers. The zero value is not ready: use NewAllocator so the address
// space starts above the null page.
type Allocator struct {
	next    Addr
	regions []Region
}

// NewAllocator returns an allocator whose first allocation lands at base.
func NewAllocator(base Addr) *Allocator {
	return &Allocator{next: AlignUp(base, PageSize)}
}

// Alloc reserves size bytes aligned to align (power of two, at least 1) and
// registers the range under name. It never fails: the simulated address
// space is effectively unbounded.
func (al *Allocator) Alloc(name string, size uint64, align Addr) Region {
	if align == 0 {
		align = 1
	}
	base := AlignUp(al.next, align)
	r := Region{ID: len(al.regions), Name: name, Base: base, Size: size}
	al.regions = append(al.regions, r)
	al.next = base + Addr(size)
	return r
}

// AllocPage reserves size bytes on a fresh 4 KB page boundary.
func (al *Allocator) AllocPage(name string, size uint64) Region {
	return al.Alloc(name, size, PageSize)
}
