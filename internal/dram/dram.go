// Package dram models the main memory of the simulated machine: a single
// DDR4-2400 channel with 16 banks behind an FCFS memory controller with a
// 64-entry read queue and a 32-entry write queue drained by high/low
// watermarks (75%/25%), per Table II of the paper. The model captures the
// three effects the evaluation depends on: bank contention, data-bus
// contention (including read/write turnaround), and row-buffer locality
// (RnR metadata streams are sequential and therefore row-hit heavy).
package dram

import (
	"fmt"

	"rnrsim/internal/mem"
	"rnrsim/internal/telemetry"
)

// Config describes the memory system. All timing is expressed in CPU
// cycles; Default converts the paper's DDR4-2400 CL17 figures to a 4 GHz
// core clock.
type Config struct {
	Name        string
	Banks       int
	RowBytes    uint64 // row-buffer size per bank
	ReadQ       int
	WriteQ      int
	DrainHigh   float64 // write-drain start threshold (fraction of WriteQ)
	DrainLow    float64 // write-drain stop threshold
	TCAS        uint64  // column access (row hit) latency, CPU cycles
	TRCD        uint64  // activate latency
	TRP         uint64  // precharge latency
	BurstCycles uint64  // data-bus occupancy of one 64 B line
	Turnaround  uint64  // bus turnaround penalty on read<->write switch
	MaxInFlight int     // controller-side concurrency (scheduling slots per cycle)
	Channels    int     // independent channels (data buses); banks are per channel
}

// Default returns the paper's main-memory configuration scaled to a 4 GHz
// CPU clock: DDR4-2400 (1200 MHz bus), tCL = tRCD = tRP = 17 memory cycles
// ~= 57 CPU cycles, BL8 burst = 4 bus cycles ~= 13 CPU cycles.
func Default() Config {
	return Config{
		Name:        "DDR4-2400",
		Banks:       16,
		RowBytes:    8 * 1024,
		ReadQ:       64,
		WriteQ:      32,
		DrainHigh:   0.75,
		DrainLow:    0.25,
		TCAS:        57,
		TRCD:        57,
		TRP:         57,
		BurstCycles: 13,
		Turnaround:  15,
		MaxInFlight: 8,
		Channels:    1,
	}
}

func (c Config) validate() error {
	if c.Banks < 1 || c.RowBytes < mem.LineSize || c.ReadQ < 1 || c.WriteQ < 1 ||
		c.BurstCycles == 0 || c.MaxInFlight < 1 || c.Channels < 0 {
		return fmt.Errorf("dram %q: invalid config %+v", c.Name, c)
	}
	if c.DrainHigh <= c.DrainLow {
		return fmt.Errorf("dram %q: drain thresholds %v <= %v", c.Name, c.DrainHigh, c.DrainLow)
	}
	return nil
}

// Stats counts controller activity, split the way Fig. 12 needs it.
type Stats struct {
	Reads          uint64 // total read transactions (lines)
	Writes         uint64 // total write transactions (lines)
	DemandReads    uint64
	PrefetchReads  uint64
	MetaReads      uint64
	MetaWrites     uint64
	Writebacks     uint64
	RowHits        uint64
	RowMisses      uint64
	BusBusyCycles  uint64
	ReadQFullStall uint64 // enqueue rejections
}

// TotalTraffic returns total off-chip line transfers (reads + writes).
func (s Stats) TotalTraffic() uint64 { return s.Reads + s.Writes }

type bank struct {
	openRow   int64 // -1 when precharged
	readyAt   uint64
	rowOpened bool
}

type pending struct {
	req    *mem.Request
	finish uint64
}

// queued is one read- or write-queue entry. The bank is decoded and the
// demand class read once at enqueue, so the per-cycle scans in Wakeup,
// issueRead and issueWrite never chase the request pointer.
type queued struct {
	req    *mem.Request
	bank   int32
	demand bool
}

// Controller is the memory controller plus DRAM device model. It
// implements mem.Backend.
type Controller struct {
	cfg       Config
	banks     []bank
	readQ     []queued
	writeQ    []queued
	inService []pending
	clock     uint64
	busFreeAt []uint64 // per channel
	lastWrite []bool   // per channel: direction of last transfer, for turnaround
	draining  bool
	burstLeft int   // writes remaining in the current drain burst
	wakeDirty *bool // set on every accepted enqueue; see BindWakeFlag
	// Power-of-two address-decode fast path (see New).
	fastAddr  bool
	drainHi   int // precomputed watermark: int(WriteQ*DrainHigh)
	drainLo   int // precomputed watermark: int(WriteQ*DrainLow)
	rowShift  uint
	chShift   uint
	chMask    uint64
	bankShift uint
	bankMask  uint64
	// doneReads counts read transactions whose data transfer finished;
	// the audit layer checks Stats.Reads == doneReads + len(inService)
	// (every issued read is either delivered or still on the bus).
	doneReads uint64
	Stats     Stats

	// Tel, when set, receives a span per write-drain episode (the
	// watermark-driven bursts that stall the read stream, one of the
	// paper's replay hazards). Nil disables tracing at zero cost.
	Tel        *telemetry.Recorder
	drainStart uint64
}

// New builds a controller. It panics on an invalid configuration.
func New(cfg Config) *Controller {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	if cfg.Channels == 0 {
		cfg.Channels = 1
	}
	c := &Controller{
		cfg:       cfg,
		banks:     make([]bank, cfg.Banks*cfg.Channels),
		busFreeAt: make([]uint64, cfg.Channels),
		lastWrite: make([]bool, cfg.Channels),
		wakeDirty: new(bool),
	}
	// Address decode runs on every scheduling scan; when the geometry is
	// all powers of two (every shipped config) the three divisions reduce
	// to shifts and masks.
	if isPow2(cfg.RowBytes) && isPow2(uint64(cfg.Channels)) && isPow2(uint64(cfg.Banks)) {
		c.fastAddr = true
		c.rowShift = log2(cfg.RowBytes)
		c.chShift = log2(uint64(cfg.Channels))
		c.chMask = uint64(cfg.Channels) - 1
		c.bankShift = log2(uint64(cfg.Banks))
		c.bankMask = uint64(cfg.Banks) - 1
	}
	for i := range c.banks {
		c.banks[i].openRow = -1
	}
	c.drainHi = int(float64(cfg.WriteQ) * cfg.DrainHigh)
	c.drainLo = int(float64(cfg.WriteQ) * cfg.DrainLow)
	return c
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// addressing: [row | bank | channel | column]; column covers one row
// buffer, lines interleave across channels at row granularity.
func (c *Controller) channelOf(line mem.Addr) int {
	if c.fastAddr {
		return int(uint64(line) >> c.rowShift & c.chMask)
	}
	return int(uint64(line) / c.cfg.RowBytes % uint64(c.cfg.Channels))
}

func (c *Controller) bankOf(line mem.Addr) int {
	if c.fastAddr {
		x := uint64(line) >> c.rowShift
		return int(x&c.chMask)*c.cfg.Banks + int(x>>c.chShift&c.bankMask)
	}
	ch := c.channelOf(line)
	b := int(uint64(line) / c.cfg.RowBytes / uint64(c.cfg.Channels) % uint64(c.cfg.Banks))
	return ch*c.cfg.Banks + b
}

func (c *Controller) rowOf(line mem.Addr) int64 {
	if c.fastAddr {
		return int64(uint64(line) >> c.rowShift >> c.chShift >> c.bankShift)
	}
	return int64(uint64(line) / c.cfg.RowBytes / uint64(c.cfg.Channels) / uint64(c.cfg.Banks))
}

func isPow2(v uint64) bool { return v != 0 && v&(v-1) == 0 }

func log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// TryEnqueue accepts a request into the read or write queue. Writebacks and
// metadata writes are posted (completed immediately from the issuer's view)
// but still consume write bandwidth later.
func (c *Controller) TryEnqueue(r *mem.Request) bool {
	switch r.Type {
	case mem.ReqWriteback, mem.ReqMetaWrite:
		if len(c.writeQ) >= c.cfg.WriteQ {
			return false
		}
		c.writeQ = append(c.writeQ, c.entry(r))
		*c.wakeDirty = true
		r.Complete(c.clock) // posted write
		return true
	default:
		if len(c.readQ) >= c.cfg.ReadQ {
			c.Stats.ReadQFullStall++
			return false
		}
		c.readQ = append(c.readQ, c.entry(r))
		*c.wakeDirty = true
		return true
	}
}

// entry builds r's queue entry, decoding its bank once.
func (c *Controller) entry(r *mem.Request) queued {
	return queued{req: r, bank: int32(c.bankOf(r.Line)), demand: r.Type.IsDemand()}
}

// BindWakeFlag points the controller's external-input flag at *p: every
// accepted enqueue sets *p, which may move Wakeup earlier. The event
// scheduler owns the flag (a slot of its wake table) and clears it when
// it recomputes the cached wakeup.
func (c *Controller) BindWakeFlag(p *bool) { c.wakeDirty = p }

// ReadQLen and WriteQLen expose occupancy for tests and adaptive clients.
func (c *Controller) ReadQLen() int { return len(c.readQ) }

// WriteQLen returns the current write-queue occupancy.
func (c *Controller) WriteQLen() int { return len(c.writeQ) }

// Pending returns outstanding work (queued plus in service).
func (c *Controller) Pending() int {
	return len(c.readQ) + len(c.writeQ) + len(c.inService)
}

// Tick advances the controller one CPU cycle: completes finished transfers
// and schedules new ones subject to bank and bus availability.
func (c *Controller) Tick(now uint64) {
	c.clock = now
	c.complete(now)
	c.updateDrainState()

	for slot := 0; slot < c.cfg.MaxInFlight; slot++ {
		if !c.scheduleOne(now) {
			break
		}
	}
	// Low-priority traffic (prefetch and metadata reads) is guaranteed one
	// issue opportunity per cycle on otherwise-idle banks, so a steady
	// demand stream cannot starve it outright — priority shapes latency,
	// not liveness.
	if len(c.inService) < c.cfg.MaxInFlight+1 {
		c.issueRead(now, false)
	}
}

// Wakeup reports the earliest future cycle at which Tick could change
// state, or mem.WakeupNever when fully quiescent. Two families of events
// matter: transfer completions (inService finish times) and issue
// opportunities (bank readyAt for queued requests). On top of those,
// drain-state transitions must be applied on the very next cycle:
// draining and burstLeft are architectural (hashed) state and the
// write-drain telemetry span stamps the flip cycle, so a pending flip —
// possible because fill callbacks can enqueue writebacks after this
// tick's updateDrainState ran — forces now+1.
func (c *Controller) Wakeup(now uint64) uint64 {
	if (!c.draining && len(c.writeQ) >= c.drainHi) || (c.draining && len(c.writeQ) <= c.drainLo) {
		return now + 1 // pending draining flip
	}
	if c.burstLeft == 0 && (len(c.writeQ) >= c.cfg.WriteQ || (c.draining && len(c.writeQ) > 0)) {
		return now + 1 // a write burst would start next tick
	}
	if c.burstLeft > 0 && len(c.writeQ) == 0 {
		return now + 1 // stale burst credit is cleared next tick
	}
	w := mem.WakeupNever
	for _, p := range c.inService {
		if p.finish < w {
			w = p.finish
		}
	}
	// Reads issue as soon as a bank is ready, provided a service slot is
	// free (slot exhaustion resolves at a finish time, already counted).
	if len(c.inService) <= c.cfg.MaxInFlight {
		for i := range c.readQ {
			if ra := c.banks[c.readQ[i].bank].readyAt; ra < w {
				w = ra
			}
		}
	}
	// Writes issue during a burst, or opportunistically when the read
	// queue is idle with enough writes banked (or the controller fully
	// idle). Outside those regimes a queued write cannot issue no matter
	// what its bank does, and the regime itself only changes at an event
	// we already track (read issue, completion, drain flip).
	if len(c.writeQ) > 0 &&
		(c.burstLeft > 0 ||
			(len(c.readQ) == 0 && (len(c.writeQ) >= writeBurstMin || len(c.inService) == 0))) {
		for i := range c.writeQ {
			if ra := c.banks[c.writeQ[i].bank].readyAt; ra < w {
				w = ra
			}
		}
	}
	if w != mem.WakeupNever && w <= now {
		w = now + 1
	}
	return w
}

// AdvanceClock fast-forwards the internal clock over skipped idle
// cycles. The clock timestamps posted-write completions and the
// write-drain telemetry span, so before simulating cycle X after a jump
// it must read X-1, as a cycle-stepped run would have left it.
func (c *Controller) AdvanceClock(now uint64) { c.clock = now }

func (c *Controller) complete(now uint64) {
	kept := c.inService[:0]
	for _, p := range c.inService {
		if p.finish <= now {
			c.doneReads++
			p.req.Complete(now)
		} else {
			kept = append(kept, p)
		}
	}
	c.inService = kept
}

func (c *Controller) updateDrainState() {
	was := c.draining
	if len(c.writeQ) >= c.drainHi {
		c.draining = true
	} else if len(c.writeQ) <= c.drainLo {
		c.draining = false
	}
	if c.Tel != nil && c.draining != was {
		if c.draining {
			c.drainStart = c.clock
		} else {
			c.Tel.Span("dram", "write-drain", c.drainStart, c.clock)
		}
	}
	if len(c.writeQ) >= c.cfg.WriteQ && c.burstLeft == 0 {
		c.burstLeft = writeBurstMin // full queue: force a burst now
	}
}

// scheduleOne issues at most one transaction and reports whether it did.
// Priority: demand reads always go first (§VII-A.6: "a write queue
// draining policy, which prioritizes a demand read over the write");
// above the high watermark writes drain ahead of prefetch/metadata reads;
// otherwise writes only use idle slots.
func (c *Controller) scheduleOne(now uint64) bool {
	if len(c.inService) >= c.cfg.MaxInFlight {
		return false
	}
	// A started write burst runs to completion so the bus pays one
	// turnaround per burst, not one per write. A full write queue forces
	// a burst (liveness); otherwise bursts start only when no demand read
	// is waiting.
	if c.burstLeft > 0 {
		if len(c.writeQ) == 0 {
			c.burstLeft = 0
		} else if c.issueWrite(now) {
			c.burstLeft--
			return true
		}
	}
	if c.issueRead(now, true) {
		return true
	}
	if c.draining && c.burstLeft == 0 {
		c.burstLeft = writeBurstMin
		if c.issueWrite(now) {
			c.burstLeft--
			return true
		}
	}
	if c.issueRead(now, false) {
		return true
	}
	// Writes below the watermark only drain in bursts: singly interleaved
	// writes would pay two bus turnarounds each. A mini-burst starts when
	// the read queue is idle with enough writes banked, or when the
	// controller is otherwise fully idle (end-of-phase flush).
	if len(c.readQ) == 0 && (len(c.writeQ) >= writeBurstMin || len(c.inService) == 0) {
		return c.issueWrite(now)
	}
	return false
}

// writeBurstMin is the smallest opportunistic write burst worth a bus
// turnaround.
const writeBurstMin = 8

func (c *Controller) issueRead(now uint64, demandOnly bool) bool {
	for i := range c.readQ {
		q := &c.readQ[i]
		// FCFS: an older blocked demand read blocks younger ones to the
		// same bank but not other banks; to keep the model simple (and
		// pessimistic only for pathological traces) a blocked read skips
		// just this request.
		if demandOnly != q.demand || c.banks[q.bank].readyAt > now {
			continue
		}
		r, bank := q.req, int(q.bank)
		c.readQ = append(c.readQ[:i], c.readQ[i+1:]...)
		finish := c.serve(r.Line, bank, now, false)
		c.account(r)
		c.inService = append(c.inService, pending{r, finish})
		return true
	}
	return false
}

func (c *Controller) issueWrite(now uint64) bool {
	for i := range c.writeQ {
		q := &c.writeQ[i]
		if c.banks[q.bank].readyAt > now {
			continue
		}
		r, bank := q.req, int(q.bank)
		c.writeQ = append(c.writeQ[:i], c.writeQ[i+1:]...)
		c.serve(r.Line, bank, now, true)
		c.account(r)
		return true
	}
	return false
}

// serve runs the bank/bus timing state machine for one line transfer on
// its (pre-decoded) bank and returns the cycle at which the data is fully
// transferred.
func (c *Controller) serve(line mem.Addr, bank int, now uint64, write bool) uint64 {
	b := &c.banks[bank]
	row := c.rowOf(line)

	var access, bankBusy uint64
	switch {
	case b.rowOpened && b.openRow == row:
		// Column accesses to an open row pipeline at tCCD, which equals
		// the burst length; only the first access pays the full CAS.
		access = c.cfg.TCAS
		bankBusy = c.cfg.BurstCycles
		c.Stats.RowHits++
	case b.rowOpened:
		access = c.cfg.TRP + c.cfg.TRCD + c.cfg.TCAS
		bankBusy = access
		c.Stats.RowMisses++
	default:
		access = c.cfg.TRCD + c.cfg.TCAS
		bankBusy = access
		c.Stats.RowMisses++
	}
	b.openRow = row
	b.rowOpened = true

	ch := c.channelOf(line)
	dataStart := now + access
	if c.busFreeAt[ch] > dataStart {
		dataStart = c.busFreeAt[ch]
	}
	if c.lastWrite[ch] != write {
		dataStart += c.cfg.Turnaround
	}
	finish := dataStart + c.cfg.BurstCycles
	c.busFreeAt[ch] = finish
	c.lastWrite[ch] = write
	b.readyAt = now + bankBusy
	c.Stats.BusBusyCycles += c.cfg.BurstCycles
	return finish
}

// RegisterProbes registers the controller's sampled series under prefix
// (e.g. "dram."): read/write queue occupancy, the row-buffer hit rate
// over the previous sample interval and data-bus utilisation. Pull-style
// probes leave the scheduling loop untouched; a nil recorder is a no-op.
func (c *Controller) RegisterProbes(tel *telemetry.Recorder, prefix string) {
	if tel == nil {
		return
	}
	tel.Probe(prefix+"readq", func(uint64) float64 { return float64(len(c.readQ)) })
	tel.Probe(prefix+"writeq", func(uint64) float64 { return float64(len(c.writeQ)) })
	var lastHits, lastMisses uint64
	tel.Probe(prefix+"row_hit_rate", func(uint64) float64 {
		dh := c.Stats.RowHits - lastHits
		dm := c.Stats.RowMisses - lastMisses
		lastHits, lastMisses = c.Stats.RowHits, c.Stats.RowMisses
		if dh+dm == 0 {
			return 0
		}
		return float64(dh) / float64(dh+dm)
	})
	var lastBusy, lastCycle uint64
	tel.Probe(prefix+"bus_util", func(cycle uint64) float64 {
		db := c.Stats.BusBusyCycles - lastBusy
		dc := cycle - lastCycle
		lastBusy, lastCycle = c.Stats.BusBusyCycles, cycle
		if dc == 0 {
			return 0
		}
		// Busy cycles accumulate across channels; normalise per channel.
		return float64(db) / float64(dc) / float64(c.cfg.Channels)
	})
}

func (c *Controller) account(r *mem.Request) {
	switch r.Type {
	case mem.ReqLoad, mem.ReqStore:
		c.Stats.Reads++
		c.Stats.DemandReads++
	case mem.ReqPrefetch:
		c.Stats.Reads++
		c.Stats.PrefetchReads++
	case mem.ReqMetaRead:
		c.Stats.Reads++
		c.Stats.MetaReads++
	case mem.ReqMetaWrite:
		c.Stats.Writes++
		c.Stats.MetaWrites++
	case mem.ReqWriteback:
		c.Stats.Writes++
		c.Stats.Writebacks++
	}
}
