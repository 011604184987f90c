package mem

import "fmt"

// ReqType classifies a memory request for priority and accounting purposes.
type ReqType uint8

const (
	// ReqLoad is a demand read issued by a core.
	ReqLoad ReqType = iota
	// ReqStore is a demand write issued by a core (write-allocate).
	ReqStore
	// ReqPrefetch is a hardware prefetch. Lower priority than demands.
	ReqPrefetch
	// ReqWriteback is a dirty-line eviction travelling down the hierarchy.
	ReqWriteback
	// ReqMetaRead is an RnR metadata (sequence/division table) streaming
	// read. It bypasses the caches and goes straight to memory.
	ReqMetaRead
	// ReqMetaWrite is an RnR metadata write-back during recording. Like the
	// paper's non-temporal stores it bypasses the caches.
	ReqMetaWrite
)

var reqTypeNames = [...]string{"load", "store", "prefetch", "writeback", "metaread", "metawrite"}

func (t ReqType) String() string {
	if int(t) < len(reqTypeNames) {
		return reqTypeNames[t]
	}
	return fmt.Sprintf("reqtype(%d)", uint8(t))
}

// IsDemand reports whether the request is a core demand access.
func (t ReqType) IsDemand() bool { return t == ReqLoad || t == ReqStore }

// Request is one in-flight memory transaction. A request is created by a
// core, a prefetcher or the RnR engine, flows down the cache hierarchy
// (possibly merging into an existing MSHR) and completes by invoking Done
// exactly once with the cycle at which its data is available.
//
// Ownership depends on Done. A request with a Done callback travels by
// reference: every level that queues it keeps the issuer's pointer, and
// the issuer owns the storage until Done runs. A request without Done is
// posted (prefetches, writebacks, metadata writes, MISB's metadata
// reads): the Backend that accepts it copies it into storage of its own
// (a Pool), so the issuer may refill and reuse the same Request as soon
// as TryEnqueue returns.
type Request struct {
	Type ReqType
	Addr Addr   // full byte address of the access
	Line Addr   // line-aligned address (cached component key)
	PC   uint64 // synthetic program counter of the access site
	Core int    // issuing core, -1 for system-generated traffic

	// RegionID tags the request with the workload region it falls in
	// (-1 when unknown). StructFlag mirrors the paper's packet flag: set
	// when the access is a read within an enabled RnR boundary range.
	RegionID   int
	StructFlag bool

	// Issue is the cycle the request entered the memory system.
	Issue uint64

	// Done is invoked exactly once when the request's data is available.
	// Nil marks a posted request (see the ownership rule above).
	Done func(cycle uint64)
}

// NewRequest builds a request of type t for byte address a, filling in the
// derived line address.
func NewRequest(t ReqType, a Addr, pc uint64, core int, issue uint64) *Request {
	r := new(Request)
	r.Init(t, a, pc, core, issue)
	return r
}

// Init overwrites r with the request NewRequest would build. Issuers of
// posted traffic refill one scratch Request with it before each
// TryEnqueue instead of allocating a new one.
func (r *Request) Init(t ReqType, a Addr, pc uint64, core int, issue uint64) {
	*r = Request{
		Type:     t,
		Addr:     a,
		Line:     LineAddr(a),
		PC:       pc,
		Core:     core,
		RegionID: -1,
		Issue:    issue,
	}
}

// Complete invokes the Done callback, if any, and clears it so accidental
// double completion panics loudly in tests rather than corrupting stats.
// A receiver that must know whether it owns r decides before calling
// Complete: afterwards every request looks posted.
func (r *Request) Complete(cycle uint64) {
	if r.Done != nil {
		d := r.Done
		r.Done = nil
		d(cycle)
	}
}

// Backend is anything that can accept requests at the bottom of a cache:
// the next cache level or the DRAM controller. TryEnqueue returns false
// when the component's input queue is full; the caller must retry later.
//
// A backend that accepts a posted request (Done == nil) and keeps it past
// the call must keep a copy, never the caller's pointer: issuers reuse
// one scratch Request for all their posted traffic. Requests with Done
// may be kept by reference until they complete.
type Backend interface {
	TryEnqueue(r *Request) bool
}

// Pool is a receiver's store of posted-request copies: a freelist over a
// chunked arena, like the cores' memOp and the caches' MSHR freelists, so
// a component's steady-state posted traffic allocates nothing. The pool
// never holds more copies than its owner has queued at once.
type Pool struct {
	arena  []Request
	free   []*Request
	carved int // copies ever carved from the arena
}

// poolChunk is how many requests one arena carve reserves.
const poolChunk = 32

// Copy returns a pool-owned copy of r. The copy is posted (it carries no
// Done) and stays valid until Release.
func (p *Pool) Copy(r *Request) *Request {
	var c *Request
	if n := len(p.free); n > 0 {
		c = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		if len(p.arena) == 0 {
			p.arena = make([]Request, poolChunk)
		}
		c = &p.arena[0]
		p.arena = p.arena[1:]
		p.carved++
	}
	*c = *r
	c.Done = nil
	return c
}

// Release returns a copy to the freelist once its owner is done with it.
func (p *Pool) Release(c *Request) { p.free = append(p.free, c) }

// Live is the number of copies handed out and not yet released. An
// owner's audit law equates it with the copies the owner still holds, so
// a leak raises it and a double release lowers it.
func (p *Pool) Live() int { return p.carved - len(p.free) }
