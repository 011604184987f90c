package coherence

import (
	"testing"

	"rnrsim/internal/mem"
)

func TestStoreInvalidatesOtherSharers(t *testing.T) {
	d := NewDirectory(4)
	line := mem.Addr(0x1000)
	d.OnFill(0, line)
	d.OnFill(1, line)
	d.OnFill(3, line)
	if got := d.lines[line].sharers; got != 0b1011 {
		t.Fatalf("sharers = %#b, want 0b1011", got)
	}
	victims := d.OnStore(1, line)
	if len(victims) != 2 || victims[0] != 0 || victims[1] != 3 {
		t.Fatalf("victims = %v, want [0 3]", victims)
	}
	if st := d.lines[line].state; st != Modified {
		t.Fatalf("state = %v, want M", st)
	}
	if got := d.lines[line].sharers; got != 0b0010 {
		t.Fatalf("post-store sharers = %#b, want writer only", got)
	}
	if d.Stats.Upgrades != 1 || d.Stats.Invalidations != 2 {
		t.Fatalf("stats = %+v, want 1 upgrade / 2 invalidations", d.Stats)
	}
}

func TestStoreToPrivateLineIsSilent(t *testing.T) {
	d := NewDirectory(2)
	line := mem.Addr(0x2000)
	d.OnFill(0, line)
	if v := d.OnStore(0, line); len(v) != 0 {
		t.Fatalf("sole sharer store invalidated %v", v)
	}
	if d.Stats.Upgrades != 0 || d.Stats.Invalidations != 0 {
		t.Fatalf("silent upgrade counted: %+v", d.Stats)
	}
	// Writing again while Modified stays silent too.
	if v := d.OnStore(0, line); len(v) != 0 {
		t.Fatalf("M-state store invalidated %v", v)
	}
}

func TestRemoteFillDowngradesModified(t *testing.T) {
	d := NewDirectory(2)
	line := mem.Addr(0x3000)
	d.OnFill(0, line)
	d.OnStore(0, line)
	d.OnFill(1, line)
	if st := d.lines[line].state; st != Shared {
		t.Fatalf("state after remote fill = %v, want S", st)
	}
	if d.Stats.Downgrades != 1 {
		t.Fatalf("downgrades = %d, want 1", d.Stats.Downgrades)
	}
	if got := d.lines[line].sharers; got != 0b11 {
		t.Fatalf("sharers = %#b, want both", got)
	}
}

func TestEvictDropsEntryAtLastSharer(t *testing.T) {
	d := NewDirectory(2)
	line := mem.Addr(0x4000)
	d.OnFill(0, line)
	d.OnFill(1, line)
	d.OnEvict(0, line)
	if len(d.lines) != 1 || d.lines[line].sharers != 0b10 {
		t.Fatalf("after first evict: tracked=%d sharers=%#b", len(d.lines), d.lines[line].sharers)
	}
	d.OnEvict(1, line)
	if len(d.lines) != 0 {
		t.Fatalf("entry survived last evict: tracked=%d", len(d.lines))
	}
	// Evicting an untracked line is a no-op.
	d.OnEvict(1, line)
	if d.Stats.Evicts != 2 {
		t.Fatalf("evicts = %d, want 2", d.Stats.Evicts)
	}
}

func TestOwnerEvictDemotesToShared(t *testing.T) {
	d := NewDirectory(2)
	line := mem.Addr(0x5000)
	d.OnFill(0, line)
	d.OnStore(0, line)
	d.OnFill(1, line) // downgrade M->S, both share
	d.OnStore(1, line)
	d.OnFill(0, line) // back to S, owner 1
	d.OnEvict(1, line)
	if st := d.lines[line].state; st != Shared {
		t.Fatalf("state after owner evict = %v, want S", st)
	}
}

func TestAuditInvariantsClean(t *testing.T) {
	d := NewDirectory(4)
	for i := 0; i < 64; i++ {
		line := mem.Addr(0x1000 + i*64)
		d.OnFill(i%4, line)
		d.OnFill((i+1)%4, line)
		if i%3 == 0 {
			d.OnStore(i%4, line)
		}
	}
	var violations []string
	d.AuditInvariants(func(line mem.Addr) uint64 { return d.lines[line].sharers },
		func(v string) { violations = append(violations, v) })
	if len(violations) != 0 {
		t.Fatalf("clean directory reported: %v", violations)
	}
}

func TestAuditInvariantsCatchUntrackedHolder(t *testing.T) {
	d := NewDirectory(2)
	line := mem.Addr(0x6000)
	d.OnFill(0, line)
	var violations []string
	// Claim core 1 also holds the line: inclusion must fail.
	d.AuditInvariants(func(mem.Addr) uint64 { return 0b11 },
		func(v string) { violations = append(violations, v) })
	if len(violations) == 0 {
		t.Fatal("holder outside sharer mask went unreported")
	}
}
