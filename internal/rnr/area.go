package rnr

import "rnrsim/internal/mem"

// Hardware budget accounting for §VII-B (hardware overhead) and §IV-C
// (context-switch state). Synthesis is out of scope for a software
// reproduction; instead the exact register and buffer bit budget of the
// engine is enumerated, which is the input the paper fed to Cadence Genus.

// HardwareBudget itemises the per-core storage of the RnR engine in bits.
type HardwareBudget struct {
	Items []BudgetItem
}

// BudgetItem is one named register or buffer.
type BudgetItem struct {
	Name  string
	Bits  uint64
	Arch  bool // software-visible architectural state (saved on switch)
	Saved bool // included in the context-switch save/restore set
}

// Budget returns the engine's per-core hardware budget, following the
// architectural states of §IV-A and the internal registers of §V.
func Budget() HardwareBudget {
	const addrBits = 48 // virtual/physical address register width
	items := []BudgetItem{
		// Architectural states (§IV-A), all saved on context switch.
		{"ASID register", 16, true, true},
		{"boundary base addresses (2x)", 2 * addrBits, true, true},
		{"boundary sizes (2x)", 2 * 32, true, true},
		{"boundary enable/valid bits (2x2)", 4, true, true},
		{"sequence table base address", addrBits, true, true},
		{"division table base address", addrBits, true, true},
		{"window size register", 16, true, true},
		{"prefetch state register", 3, true, true},

		// Internal registers (§V), saved on pause for migration.
		{"current structure read counter", 32, false, true},
		{"sequence table length", 32, false, true},
		{"division table length", 24, false, true},
		{"current seq page address (physical)", addrBits, false, true},
		{"current div page address (physical)", addrBits, false, true},
		{"current window counter", 24, false, true},
		{"prefetch pace register", 16, false, true},
		{"next prefetch index", 32, false, true},
		{"metadata credit counters", 16, false, true},

		// On-chip buffers (not saved: refetched after a switch).
		{"sequence table buffer (2x128B)", 2 * BufferBytes * 8, false, false},
		{"division table buffer (2x128B)", 2 * BufferBytes * 8, false, false},
	}
	return HardwareBudget{Items: items}
}

// TotalBits sums the whole per-core budget.
func (b HardwareBudget) TotalBits() uint64 {
	var n uint64
	for _, it := range b.Items {
		n += it.Bits
	}
	return n
}

// TotalBytes is the per-core storage in bytes (paper: < 1 KB per core).
func (b HardwareBudget) TotalBytes() float64 { return float64(b.TotalBits()) / 8 }

// SavedBytes is the context-switch save/restore footprint (paper: 86.5 B).
func (b HardwareBudget) SavedBytes() float64 {
	var n uint64
	for _, it := range b.Items {
		if it.Saved {
			n += it.Bits
		}
	}
	return float64(n) / 8
}

// SavedState is a snapshot of the engine taken when the OS deschedules the
// process (§IV-C). Restoring it resumes recording or replaying exactly
// where it paused; the on-chip metadata buffers are refetched rather than
// saved.
type SavedState struct {
	Arch          ArchState
	CurStructRead uint64
	SeqLen        int
	DivLen        int
	NextIdx       int
	CurWindow     int
	WindowReads   uint64
}

// Save captures the engine's architectural and internal registers. The
// engine should be paused first (MarkPause), as the OS would do.
func (e *Engine) Save() SavedState {
	return SavedState{
		Arch:          e.Arch,
		CurStructRead: e.curStructRead,
		SeqLen:        len(e.seq),
		DivLen:        len(e.div),
		NextIdx:       e.nextIdx,
		CurWindow:     e.curWindow,
		WindowReads:   e.windowReads,
	}
}

// Restore reinstates a saved snapshot. The metadata tables themselves live
// in (simulated) program memory and survive the switch by construction;
// the on-chip buffers are marked empty so replay refetches them.
func (e *Engine) Restore(s SavedState) {
	e.Arch = s.Arch
	e.curStructRead = s.CurStructRead
	e.nextIdx = s.NextIdx
	e.curWindow = s.CurWindow
	e.windowReads = s.WindowReads
	// Buffers refill from memory: reset the credit so streaming restarts
	// from the prefetch pointer.
	e.fetchedIdx = s.NextIdx - s.NextIdx%(mem.LineSize/SeqEntryBytes)
	if e.fetchedIdx < 0 {
		e.fetchedIdx = 0
	}
	// Orphan any metadata reads still in flight from before the switch:
	// without the generation bump their completions would land after the
	// restore, driving metaInFly negative and advancing fetchedIdx over
	// lines that were never re-read (flushed out by the audit invariant
	// 0 <= metaInFly <= 4). The issue cursors restart at the refill
	// point for the same reason.
	e.metaGen++
	e.metaIssued = e.fetchedIdx
	e.metaInFly = 0
	e.divFetched = 0
	e.divIssued = 0
	e.divInFly = 0
	e.wake.Mark()
}
