// Package coherence implements the MESI-lite coherence filter the
// multicore system places in front of the shared LLC: a directory of
// per-line {state, sharer bitmask, owner} entries with invalidate-on-
// write semantics. "Lite" means exactly the three states the timing
// model can observe (Invalid, Shared, Modified) and no forwarding
// network: a store to a shared line invalidates the other private
// copies, and the cost modelled is the victims' future warm-up misses
// — the same modelling discipline the context-switch pollution path
// uses. The trace simulator carries no data, so E is indistinguishable
// from M and dirty invalidated lines are dropped without forwarding.
//
// The directory is deliberately excluded from the architectural state
// hash: its observable effects (lines removed from private caches) are
// already hashed through the cache tag arrays, and with one core no
// invalidation can ever fire — which is what keeps a 1-core
// coherence-enabled machine byte-identical to the uncoherent one.
package coherence

import (
	"fmt"
	"math/bits"
	"sort"

	"rnrsim/internal/mem"
)

// State is the MESI-lite line state as tracked by the directory.
type State uint8

// The tracked states. Exclusive is folded into Modified: without data
// movement the timing model cannot distinguish a silent E->M upgrade.
const (
	Invalid State = iota
	Shared
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// MaxCores bounds the sharer bitmask width.
const MaxCores = 64

// Stats counts the directory's coherence events.
type Stats struct {
	Upgrades      uint64 `json:"upgrades"`      // stores that took S->M (or stole M ownership)
	Invalidations uint64 `json:"invalidations"` // private copies invalidated by remote stores
	Downgrades    uint64 `json:"downgrades"`    // M->S transitions on a remote read
	Fills         uint64 `json:"fills"`         // sharer-set inserts (private-cache fills)
	Evicts        uint64 `json:"evicts"`        // sharer-set removals (private-cache evictions)
}

type entry struct {
	state   State
	sharers uint64 // bit c set = core c's private hierarchy may hold the line
	owner   int8   // meaningful when state == Modified
}

// Directory tracks every line resident in at least one private cache.
// It is driven by the simulator's cache hooks (fill, store, evict) and
// answers with the set of cores whose copies must be invalidated. All
// methods are deterministic; iteration over the map happens only in
// audit sweeps, sorted.
type Directory struct {
	cores   int
	lines   map[mem.Addr]entry
	scratch []int
	Stats   Stats
}

// NewDirectory builds a directory for n cores (1 <= n <= MaxCores).
func NewDirectory(n int) *Directory {
	if n < 1 || n > MaxCores {
		panic(fmt.Sprintf("coherence: %d cores outside [1, %d]", n, MaxCores))
	}
	return &Directory{cores: n, lines: make(map[mem.Addr]entry)}
}

// OnFill records that core's private hierarchy installed line. A fill
// of a line another core holds Modified downgrades it to Shared (the
// read that caused this fill already fetched current data through the
// shared levels; no forwarding is modelled).
func (d *Directory) OnFill(core int, line mem.Addr) {
	e := d.lines[line]
	if e.state == Modified && int(e.owner) != core {
		e.state = Shared
		d.Stats.Downgrades++
	}
	if e.state == Invalid {
		e.state = Shared
	}
	if e.sharers&(1<<uint(core)) == 0 {
		d.Stats.Fills++
	}
	e.sharers |= 1 << uint(core)
	d.lines[line] = e
}

// OnStore records a store by core to line and returns the cores whose
// private copies must be invalidated (every sharer but the writer).
// The returned slice is reused across calls; consume it before the
// next OnStore. The line ends Modified with core as the sole sharer.
func (d *Directory) OnStore(core int, line mem.Addr) []int {
	e := d.lines[line]
	d.scratch = d.scratch[:0]
	others := e.sharers &^ (1 << uint(core))
	if others != 0 {
		d.Stats.Upgrades++
		d.Stats.Invalidations += uint64(bits.OnesCount64(others))
		for c := 0; others != 0; c, others = c+1, others>>1 {
			if others&1 != 0 {
				d.scratch = append(d.scratch, c)
			}
		}
	}
	e.state = Modified
	e.owner = int8(core)
	e.sharers = 1 << uint(core)
	d.lines[line] = e
	return d.scratch
}

// OnEvict records that core's private hierarchy no longer holds line
// (both its L1 and L2 evicted it). The entry is dropped once the last
// sharer leaves, keeping the directory sized by private-cache contents.
func (d *Directory) OnEvict(core int, line mem.Addr) {
	e, ok := d.lines[line]
	if !ok || e.sharers&(1<<uint(core)) == 0 {
		return
	}
	d.Stats.Evicts++
	e.sharers &^= 1 << uint(core)
	if e.sharers == 0 {
		delete(d.lines, line)
		return
	}
	if e.state == Modified && int(e.owner) == core {
		// The owner left; the remaining copies are clean readers.
		e.state = Shared
	}
	d.lines[line] = e
}

// Reset drops every tracked line. The simulator calls it when the
// private caches are invalidated wholesale (context switch-in), a path
// that bypasses the per-line eviction hooks; stats are kept cumulative.
func (d *Directory) Reset() {
	for l := range d.lines {
		delete(d.lines, l)
	}
}

// HasSharer reports whether the directory believes core holds line.
func (d *Directory) HasSharer(core int, line mem.Addr) bool {
	return d.lines[line].sharers&(1<<uint(core)) != 0
}

// AuditInvariants sweeps the directory's internal laws:
//
//	M-entry geometry   a Modified line has exactly one sharer, the owner
//	S-entry geometry   a Shared line has at least one sharer
//	no empty entries   every tracked line has a sharer (evict deletes)
//
// holders, when non-nil, maps a line to the bitmask of cores whose
// private caches actually hold it; the sweep then checks the inclusion
// law sharer-mask ⊇ actual holders (a held line the directory lost
// track of is a stale copy a remote store could never invalidate).
// Lines are visited in sorted order so violation reports are stable.
func (d *Directory) AuditInvariants(holders func(line mem.Addr) uint64, report func(string)) {
	lines := make([]mem.Addr, 0, len(d.lines))
	for l := range d.lines {
		lines = append(lines, l)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, l := range lines {
		e := d.lines[l]
		switch {
		case e.sharers == 0:
			report(fmt.Sprintf("line %#x tracked with empty sharer set", uint64(l)))
		case e.state == Modified:
			if bits.OnesCount64(e.sharers) != 1 {
				report(fmt.Sprintf("line %#x Modified with %d sharers (mask %#x)",
					uint64(l), bits.OnesCount64(e.sharers), e.sharers))
			} else if e.sharers != 1<<uint(e.owner) {
				report(fmt.Sprintf("line %#x Modified: owner %d not the sharer (mask %#x)",
					uint64(l), e.owner, e.sharers))
			}
		case e.state == Invalid:
			report(fmt.Sprintf("line %#x tracked in state I with mask %#x", uint64(l), e.sharers))
		}
		if holders != nil {
			if held := holders(l); held&^e.sharers != 0 {
				report(fmt.Sprintf("line %#x held by cores %#x outside sharer mask %#x",
					uint64(l), held&^e.sharers, e.sharers))
			}
		}
	}
}
