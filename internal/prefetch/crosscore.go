package prefetch

import (
	"fmt"

	"rnrsim/internal/cache"
	"rnrsim/internal/mem"
)

// CrossCore is a Pickle-style cooperative LLC prefetcher: a single
// correlation table shared by all cores, trained on the demand-miss
// stream each core presents to the LLC and issuing prefetches into the
// LLC on behalf of the core predicted to consume them. It deliberately
// does not implement Prefetcher — the per-L2 interface routes issues to
// one private cache, while CrossCore observes every LLC bank and issues
// through a core-tagged callback the simulator wires to the banked LLC.
//
// The table is a direct-mapped, power-of-two array of correlation
// entries {trigger → two MRU successors}, indexed by a multiplicative
// hash of the trigger line. Training is per-core temporal: each core's
// previous LLC miss is the trigger for its current one, so interleaved
// miss streams from different cores never pollute each other's pairs,
// but a pattern recorded by one core serves lookups from any core —
// the cross-core sharing that gives the design its name.
type CrossCore struct {
	// Issue delivers one predicted line to the LLC on behalf of core.
	// It returns false when refused for capacity. Set once by the
	// simulator before the first OnMiss; nil drops all predictions.
	Issue func(core int, line mem.Addr) bool

	table    []ccEntry
	lastMiss []mem.Addr
	hasLast  []bool

	Stats CrossCoreStats
}

// CrossCoreStats counts training and issue activity.
type CrossCoreStats struct {
	Trained uint64 `json:"trained"` // successor-pair inserts/refreshes
	Lookups uint64 `json:"lookups"` // triggering misses that found a table entry
	Issued  uint64 `json:"issued"`  // predictions accepted by the LLC
	Dropped uint64 `json:"dropped"` // predictions refused for capacity (or Issue == nil)
}

type ccEntry struct {
	trigger mem.Addr
	next    [2]mem.Addr // MRU-ordered successors; 0 = empty
	filled  uint8
}

// The correlation table: 1<<ccIndexBits direct-mapped entries, each
// issuing both of its successors on a hit.
const (
	ccIndexBits = 12
	ccEntries   = 1 << ccIndexBits
)

// NewCrossCore builds a cross-core prefetcher for cores cores.
func NewCrossCore(cores int) *CrossCore {
	if cores < 1 {
		panic(fmt.Sprintf("prefetch: CrossCore with %d cores", cores))
	}
	return &CrossCore{
		table:    make([]ccEntry, ccEntries),
		lastMiss: make([]mem.Addr, cores),
		hasLast:  make([]bool, cores),
	}
}

// OnMiss observes one LLC demand miss (the simulator filters the bank's
// access stream to Hit == false, demand-type requests). It first trains
// the previous→current successor pair for the missing core, then looks
// up the current miss as a trigger and issues its predicted successors
// on behalf of that core.
func (p *CrossCore) OnMiss(ev cache.AccessInfo) {
	core := ev.Core
	if core < 0 || core >= len(p.lastMiss) {
		return
	}
	if p.hasLast[core] && p.lastMiss[core] != ev.Line {
		p.train(p.lastMiss[core], ev.Line)
	}
	p.lastMiss[core] = ev.Line
	p.hasLast[core] = true

	e := &p.table[p.index(ev.Line)]
	if e.filled == 0 || e.trigger != ev.Line {
		return
	}
	p.Stats.Lookups++
	for i := 0; i < int(e.filled); i++ {
		if p.Issue != nil && p.Issue(core, e.next[i]) {
			p.Stats.Issued++
		} else {
			p.Stats.Dropped++
		}
	}
}

// train records next as the MRU successor of trigger, evicting whatever
// entry shared the slot (direct-mapped conflict policy).
func (p *CrossCore) train(trigger, next mem.Addr) {
	e := &p.table[p.index(trigger)]
	if e.filled == 0 || e.trigger != trigger {
		*e = ccEntry{trigger: trigger, next: [2]mem.Addr{next}, filled: 1}
		p.Stats.Trained++
		return
	}
	if e.next[0] == next {
		return // already MRU
	}
	e.next[1] = e.next[0]
	e.next[0] = next
	if e.filled < 2 {
		e.filled = 2
	}
	p.Stats.Trained++
}

// Reset clears the correlation table and every core's training context,
// modelling the retraining a context switch forces on shared prefetcher
// state (stats stay cumulative, like the per-core prefetchers').
func (p *CrossCore) Reset() {
	for i := range p.table {
		p.table[i] = ccEntry{}
	}
	for c := range p.lastMiss {
		p.lastMiss[c] = 0
		p.hasLast[c] = false
	}
}

func (p *CrossCore) index(line mem.Addr) uint64 {
	return (uint64(line) * 0x9E3779B97F4A7C15) >> (64 - ccIndexBits)
}

// HashState folds every architectural bit of the prefetcher — the
// correlation table and per-core last-miss context — into the audit
// state hash via mix. Iteration is over dense arrays, so the fold is
// deterministic by construction.
func (p *CrossCore) HashState(mix func(uint64)) {
	mix(uint64(len(p.table)))
	for i := range p.table {
		e := &p.table[i]
		if e.filled == 0 {
			continue
		}
		mix(uint64(i))
		mix(uint64(e.trigger))
		mix(uint64(e.next[0]))
		mix(uint64(e.next[1]))
		mix(uint64(e.filled))
	}
	for c := range p.lastMiss {
		if p.hasLast[c] {
			mix(uint64(c))
			mix(uint64(p.lastMiss[c]))
		}
	}
}
