package dram

import (
	"testing"

	"rnrsim/internal/mem"
)

func TestChannelsIncreaseThroughput(t *testing.T) {
	// A random read stream over many rows should finish roughly twice as
	// fast with two channels.
	stream := func(channels int) uint64 {
		cfg := testConfig()
		cfg.Channels = channels
		// Enough scheduling slots that the data bus, not the controller,
		// is the binding constraint.
		cfg.MaxInFlight = 24
		c := newController(cfg)
		const n = 64
		var done [n]uint64
		next := 0
		for cycle := uint64(1); cycle < 200000; cycle++ {
			for next < n {
				r := load(mem.Addr(uint64(next)*cfg.RowBytes*7+0x40), &done[next])
				if !c.TryEnqueue(r) {
					break
				}
				next++
			}
			tick(c, cycle)
			alldone := true
			for i := range done {
				if done[i] == 0 {
					alldone = false
					break
				}
			}
			if alldone {
				return cycle
			}
		}
		t.Fatal("stream never finished")
		return 0
	}
	one := stream(1)
	four := stream(4)
	if float64(four) > float64(one)*0.6 {
		t.Errorf("4 channels took %d cycles vs %d with 1 — no parallelism", four, one)
	}
}

func TestChannelAddressingCoversAllBanks(t *testing.T) {
	cfg := testConfig()
	cfg.Channels = 4
	c := newController(cfg)
	seen := map[int]bool{}
	for i := 0; i < 4096; i++ {
		seen[c.bankOf(mem.Addr(i)*mem.Addr(cfg.RowBytes))] = true
	}
	if len(seen) != cfg.Banks*cfg.Channels {
		t.Errorf("addressing reaches %d banks, want %d", len(seen), cfg.Banks*cfg.Channels)
	}
}

func TestWriteDrainBurstsAmortiseTurnaround(t *testing.T) {
	// Interleaved single writes pay a bus turnaround each; the burst
	// policy must drain a full write queue while reads keep arriving
	// without collapsing read throughput.
	cfg := testConfig()
	c := newController(cfg)
	var reads [48]uint64
	nextRead := 0
	writes := 0
	for cycle := uint64(1); cycle < 100000; cycle++ {
		// Steady trickle of writes and reads.
		if cycle%7 == 0 && writes < 64 {
			wb := mem.NewRequest(mem.ReqWriteback, mem.Addr(writes)*0x40, 0, -1, 0)
			if c.TryEnqueue(wb) {
				writes++
			}
		}
		if cycle%11 == 0 && nextRead < len(reads) {
			if c.TryEnqueue(load(mem.Addr(0x800000+nextRead*0x40), &reads[nextRead])) {
				nextRead++
			}
		}
		tick(c, cycle)
		done := nextRead == len(reads) && writes == 64 && c.Pending() == 0
		if done {
			for i := range reads {
				if reads[i] == 0 {
					t.Fatalf("read %d lost", i)
				}
			}
			return
		}
	}
	t.Fatalf("mixed stream never drained: pending=%d writes=%d reads=%d", c.Pending(), writes, nextRead)
}

func TestFullWriteQueueForcesDrain(t *testing.T) {
	cfg := testConfig()
	c := newController(cfg)
	// Fill the write queue to capacity, then keep demand reads flowing:
	// the forced burst must make room so later writebacks are accepted.
	for i := 0; i < cfg.WriteQ; i++ {
		wb := mem.NewRequest(mem.ReqWriteback, mem.Addr(i)*0x40, 0, -1, 0)
		if !c.TryEnqueue(wb) {
			t.Fatalf("write %d rejected below capacity", i)
		}
	}
	var sink uint64
	c.TryEnqueue(load(0x500000, &sink))
	accepted := false
	for cycle := uint64(1); cycle < 5000; cycle++ {
		tick(c, cycle)
		if !accepted {
			wb := mem.NewRequest(mem.ReqWriteback, 0x999940, 0, -1, 0)
			accepted = c.TryEnqueue(wb)
		}
	}
	if !accepted {
		t.Error("write queue never drained below capacity")
	}
	if sink == 0 {
		t.Error("demand read starved by the forced drain")
	}
}

func TestRowHitsForSequentialMetadata(t *testing.T) {
	// RnR metadata is streamed sequentially: the row-hit rate must be
	// high, which is the basis of the paper's "metadata traffic is
	// efficient" argument (§VII-A.7).
	cfg := testConfig()
	c := newController(cfg)
	const n = 64
	done := 0
	next := 0
	for cycle := uint64(1); cycle < 100000 && done < n; cycle++ {
		for next < n {
			r := mem.NewRequest(mem.ReqMetaRead, mem.Addr(0x70000000+next*0x40), 0, 0, 0)
			r.Done = func(uint64) { done++ }
			if !c.TryEnqueue(r) {
				break
			}
			next++
		}
		tick(c, cycle)
	}
	if done != n {
		t.Fatalf("metadata stream incomplete: %d/%d", done, n)
	}
	if c.Stats.RowHits < uint64(n)*3/4 {
		t.Errorf("metadata stream row hits %d/%d, want >= 75%%", c.Stats.RowHits, n)
	}
}

// TestEnqueueDecodesBank pins the queue entries' pre-decoded bank to the
// address decode, on the shipped power-of-two geometry (shift/mask fast
// path) and on a non-power-of-two one (the division path).
func TestEnqueueDecodesBank(t *testing.T) {
	pow2 := testConfig()
	pow2.Channels = 2
	odd := testConfig()
	odd.Channels = 3
	odd.Banks = 6
	odd.RowBytes = 3 * 1024
	for _, tc := range []struct {
		name string
		cfg  Config
		fast bool
	}{{"pow2", pow2, true}, {"non-pow2", odd, false}} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.ReadQ, tc.cfg.WriteQ = 4096, 4096
			c := newController(tc.cfg)
			if c.fastAddr != tc.fast {
				t.Fatalf("fastAddr = %v, want %v", c.fastAddr, tc.fast)
			}
			seen := map[int32]bool{}
			for i := 0; i < 2048; i++ {
				line := mem.LineAddr(mem.Addr(uint64(i) * 0x9c40))
				typ := mem.ReqLoad
				if i%3 == 0 {
					typ = mem.ReqWriteback
				}
				if !c.TryEnqueue(mem.NewRequest(typ, line, 0, 0, 0)) {
					t.Fatalf("enqueue %d rejected", i)
				}
			}
			for _, q := range append(append([]queued(nil), c.readQ...), c.writeQ...) {
				if want := c.bankOf(q.req.Line); int(q.bank) != want {
					t.Errorf("line %#x: queued bank %d, bankOf %d", uint64(q.req.Line), q.bank, want)
				}
				if q.demand != q.req.Type.IsDemand() {
					t.Errorf("line %#x: queued demand %v for %s", uint64(q.req.Line), q.demand, q.req.Type)
				}
				seen[q.bank] = true
			}
			if len(seen) != tc.cfg.Banks*tc.cfg.Channels {
				t.Errorf("queued entries reach %d banks, want %d", len(seen), tc.cfg.Banks*tc.cfg.Channels)
			}
			var laws []string
			c.AuditInvariants(func(law string) { laws = append(laws, law) })
			if len(laws) != 0 {
				t.Errorf("audit: %v", laws)
			}
		})
	}
}
