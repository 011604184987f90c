package prefetch

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"slices"
	"testing"

	"rnrsim/internal/mem"
)

// The stream pins drive every baseline prefetcher that keeps a bounded
// table with a deterministic synthetic stream long enough to wrap each of
// its bounds several times, and pin a digest of everything it issues
// (MISB's off-chip metadata traffic included). They hold the prefetchers'
// exact table semantics — insertion order, eviction victim, in-place
// update — fixed under refactoring. Bingo and SteMS are pinned with at
// most 8 regions live, well inside their 256-region bound.

// pinRand is a splitmix64 generator.
type pinRand uint64

func (r *pinRand) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	return mix64(uint64(*r))
}

func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// pinDigest folds a stream of 64-bit values into FNV-1a and counts them.
type pinDigest struct {
	h hash.Hash64
	n int
}

func newPinDigest() *pinDigest { return &pinDigest{h: fnv.New64a()} }

func (d *pinDigest) add(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
	d.n++
}

func (d *pinDigest) issue(line mem.Addr) bool {
	d.add(uint64(line))
	return true
}

func lineAt(n uint64) mem.Addr { return mem.Addr(n) << mem.LineShift }

// temporalStream emits n misses (one in eight reported as a hit) drawn
// from four recurring sequences of 300, 2,500, 7,000 and 12,000 lines,
// played in bursts of 16-63, plus noise. The sequences share one pool of
// 10,000 lines, so a line recurs inside and across them, and the periods
// straddle the GHB (4,096) and Domino (8,192) history sizes. The pc is
// the sequence's id, which MISB localises by.
func temporalStream(n int, visit func(pc uint64, line mem.Addr, hit bool)) {
	r := pinRand(3)
	pool := func() mem.Addr { return lineAt(1<<20 + r.next()%10000*5) }
	var seqs [4][]mem.Addr
	for i, length := range []int{300, 2500, 7000, 12000} {
		for j := 0; j < length; j++ {
			seqs[i] = append(seqs[i], pool())
		}
	}
	var at [4]int
	for emitted := 0; emitted < n; {
		pick := r.next() % 8
		burst := int(16 + r.next()%48)
		for b := 0; b < burst && emitted < n; b++ {
			hit := r.next()%8 == 0
			if pick == 7 { // noise
				visit(99, lineAt(1<<30+r.next()%(1<<20)), hit)
			} else {
				s := int(pick) % 4
				visit(uint64(s+1), seqs[s][at[s]], hit)
				at[s] = (at[s] + 1) % len(seqs[s])
			}
			emitted++
		}
	}
}

// spatialKeys is the pool of (pc, region) trigger events the spatial
// stream draws from: more than the 16 Ki-entry footprint histories hold,
// so keys recur both before and after their entries are evicted.
const spatialKeys = 24000

// spatialStream runs gens region generations, slots of them open at a
// time and touched round-robin, burst touches per turn. A generation draws a key no open slot
// holds, triggers at the key's offset and touches its region 64 times —
// the count that closes a generation — cycling over a footprint that
// drifts every 4,096 generations. When the prefetcher evicts no
// generation itself, exactly the open slots' regions are live, so at
// most slots of them.
func spatialStream(slots, gens, burst int, visit func(pc uint64, line mem.Addr)) {
	type slot struct {
		key    uint64
		pc     uint64
		region mem.Addr
		fp     uint32
		off    uint
		left   int
	}
	r := pinRand(7)
	var open []slot
	started := 0
	start := func() slot {
		for {
			k := r.next() % spatialKeys
			if slices.ContainsFunc(open, func(s slot) bool { return s.key == k && s.left > 0 }) {
				continue
			}
			off := uint(k % regionLines)
			epoch := uint64(started / 4096)
			started++
			return slot{
				key:    k,
				pc:     0x4000 + mix64(k)%2048*4,
				region: mem.Addr(1<<32 + k*3*regionBytes),
				fp:     uint32(mix64(k^epoch<<40)) | 1<<off,
				off:    off,
				left:   regionLines * 2,
			}
		}
	}
	for started < gens && len(open) < slots {
		open = append(open, start())
	}
	for len(open) > 0 {
		for i := 0; i < len(open); {
			s := &open[i]
			for b := 0; b < burst && s.left > 0; b++ {
				visit(s.pc, s.region+mem.Addr(s.off)<<mem.LineShift)
				for s.off = (s.off + 1) % regionLines; s.fp&(1<<s.off) == 0; s.off = (s.off + 1) % regionLines {
				}
				s.left--
			}
			if s.left == 0 {
				if started < gens {
					open[i] = start()
				} else {
					open = slices.Delete(open, i, i+1)
					continue
				}
			}
			i++
		}
	}
}

func pinBestOffset(d *pinDigest) {
	p := NewBestOffset()
	r := pinRand(1)
	line := uint64(1 << 20)
	for i := 0; i < 40000; i++ {
		switch (i / 700) % 4 {
		case 0:
			line += 3
		case 1:
			line += 1 + r.next()%2
		case 2:
			line = 1<<20 + r.next()%4096
		case 3:
			line -= 2
		}
		p.OnAccess(access(1, lineAt(line), r.next()%8 == 0), d.issue)
	}
}

func pinGHB(d *pinDigest) {
	p := NewGHB()
	temporalStream(60000, func(pc uint64, line mem.Addr, hit bool) {
		p.OnAccess(access(pc, line, hit), d.issue)
	})
}

func pinDomino(d *pinDigest) {
	p := NewDomino()
	temporalStream(60000, func(pc uint64, line mem.Addr, hit bool) {
		p.OnAccess(access(pc, line, hit), d.issue)
	})
}

func pinMISB(d *pinDigest) {
	p := NewMISB()
	p.Meta = func(write bool, addr mem.Addr) {
		tag := uint64(1) << 62
		if write {
			tag = 1 << 63
		}
		d.add(tag | uint64(addr))
	}
	temporalStream(60000, func(pc uint64, line mem.Addr, hit bool) {
		p.OnAccess(access(pc, line, hit), d.issue)
	})
}

// pinDroplet streams a 20,000-line edge array, sequentially and at
// random, so more distinct edge lines are decoded than the 16 Ki-entry
// resolved table holds; half the edge accesses also arrive as fills,
// decoded on the next OnCycle.
func pinDroplet(d *pinDigest) {
	const edgeBase, edgeLines = 1 << 24, 20000
	p := NewDroplet()
	p.EdgeRegion = func(line mem.Addr) bool {
		n := uint64(line) >> mem.LineShift
		return n >= edgeBase && n < edgeBase+edgeLines
	}
	p.Resolve = func(line mem.Addr) []mem.Addr {
		n := uint64(line) >> mem.LineShift
		var out []mem.Addr
		for i := uint64(0); i < n%40; i++ {
			out = append(out, lineAt(1<<28+mix64(n+i)%(1<<16)))
		}
		return out
	}
	r := pinRand(5)
	seq := uint64(0)
	for i := 0; i < 60000; i++ {
		var n uint64
		switch r.next() % 4 {
		case 0, 1:
			n = edgeBase + seq%edgeLines
			seq++
		case 2:
			n = edgeBase + r.next()%edgeLines
		case 3:
			n = 1<<28 + r.next()%(1<<16)
		}
		p.OnAccess(access(1, lineAt(n), r.next()%4 == 0), d.issue)
		if i%2 == 0 {
			p.OnFill(lineAt(n), i%3 == 0, uint64(i))
		}
		p.OnCycle(uint64(i), d.issue)
	}
}

func pinBingo(d *pinDigest) {
	p := NewBingo()
	spatialStream(8, 70000, 1, func(pc uint64, line mem.Addr) {
		p.OnAccess(access(pc, line, false), d.issue)
	})
}

func pinSteMS(d *pinDigest) {
	p := NewSteMS()
	spatialStream(8, 70000, 1, func(pc uint64, line mem.Addr) {
		p.OnAccess(access(pc, line, false), d.issue)
	})
}

// TestBoundedTableStreamPins pins the issued-prefetch digest of each
// bounded-table prefetcher on its synthetic stream.
func TestBoundedTableStreamPins(t *testing.T) {
	pins := []struct {
		name  string
		drive func(*pinDigest)
		n     int
		sum   uint64
	}{
		{"bestoffset", pinBestOffset, 34999, 0xbddee273a2bb506e},
		{"ghb", pinGHB, 43315, 0xae5a7154197297e2},
		{"domino", pinDomino, 127206, 0xcfe5ad5931e79921},
		{"misb", pinMISB, 249267, 0xa1a2d5f28f79479c},
		{"droplet", pinDroplet, 756592, 0xd1adcb2e13c39cb5},
		{"bingo", pinBingo, 764223, 0x43b99d49368f6aa5},
		{"stems", pinSteMS, 2763538, 0x4459d9218de01089},
	}
	for _, pin := range pins {
		t.Run(pin.name, func(t *testing.T) {
			t.Parallel()
			d := newPinDigest()
			pin.drive(d)
			if d.n != pin.n || d.h.Sum64() != pin.sum {
				t.Errorf("issued %d values, digest %#016x; pinned %d, %#016x", d.n, d.h.Sum64(), pin.n, pin.sum)
			}
		})
	}
}

// TestRegionEvictionDeterministic gives two Bingo and two SteMS
// instances the same stream with 600 regions open at once, so once 256
// are live every trigger retires a generation to stay inside the bound.
// Each pair must issue identical streams: the retired generation is a
// function of the access stream alone, never of Go's map order.
func TestRegionEvictionDeterministic(t *testing.T) {
	for _, kind := range []struct {
		name string
		make func() Prefetcher
	}{
		{"bingo", func() Prefetcher { return NewBingo() }},
		{"stems", func() Prefetcher { return NewSteMS() }},
	} {
		issued := func() []mem.Addr {
			p, c := kind.make(), &collector{}
			spatialStream(600, 2000, 3, func(pc uint64, line mem.Addr) {
				p.OnAccess(access(pc, line, false), c.issue)
			})
			return c.lines
		}
		a, b := issued(), issued()
		if len(a) == 0 {
			t.Fatalf("%s issued nothing: the stream does not exercise history", kind.name)
		}
		if !slices.Equal(a, b) {
			n := 0
			for n < min(len(a), len(b)) && a[n] == b[n] {
				n++
			}
			t.Errorf("%s: two instances diverge at prefetch %d of %d/%d", kind.name, n, len(a), len(b))
		}
	}
}
