package audit

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

func TestCheckerReportsViolations(t *testing.T) {
	c := New()
	c.Register("alpha", func(report func(string)) {})
	fail := false
	c.Register("beta", func(report func(string)) {
		if fail {
			report("law broken")
		}
	})

	c.Check(10)
	if got := c.Violations(); len(got) != 0 {
		t.Fatalf("clean sweep produced %v", got)
	}
	if c.Err() != nil {
		t.Fatalf("clean checker Err = %v", c.Err())
	}

	fail = true
	c.Check(20)
	v := c.Violations()
	if len(v) != 1 || v[0].Cycle != 20 || v[0].Component != "beta" || v[0].Law != "law broken" {
		t.Fatalf("violations = %v", v)
	}
	if want := "cycle 20: beta: law broken"; v[0].String() != want {
		t.Fatalf("String() = %q, want %q", v[0], want)
	}
	err := c.Err()
	if err == nil || !strings.Contains(err.Error(), "1 invariant violation") {
		t.Fatalf("Err = %v", err)
	}
	if c.Checks() != 2 {
		t.Fatalf("Checks = %d, want 2", c.Checks())
	}
}

func TestCheckerLimitAndDropped(t *testing.T) {
	c := New()
	c.Register("noisy", func(report func(string)) {
		for i := 0; i < maxViolations+1; i++ {
			report(fmt.Sprintf("law %d", i))
		}
	})
	c.Check(1)
	if len(c.Violations()) != maxViolations {
		t.Fatalf("retained %d, want %d", len(c.Violations()), maxViolations)
	}
	if c.dropped != 1 {
		t.Fatalf("dropped %d, want 1", c.dropped)
	}
	err := c.Err()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d invariant violation", maxViolations+1)) {
		t.Fatalf("Err should count dropped violations: %v", err)
	}
}

func TestConfigDefaults(t *testing.T) {
	var zero Config
	if zero.EffectiveInterval() != DefaultInterval {
		t.Fatalf("EffectiveInterval = %d", zero.EffectiveInterval())
	}
	if (Config{Interval: 1}).EffectiveInterval() != 1 {
		t.Fatal("explicit interval ignored")
	}
}

// TestHashMatchesStdlibFNV pins our incremental hasher to the standard
// library's FNV-1a over the same byte stream.
func TestHashMatchesStdlibFNV(t *testing.T) {
	h := NewHash()
	ref := fnv.New64a()

	feed := func(bs ...byte) {
		for _, b := range bs {
			h.Byte(b)
		}
		ref.Write(bs)
	}
	feed([]byte("architectural state")...)

	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], 0xdeadbeefcafef00d)
	h.U64(0xdeadbeefcafef00d)
	ref.Write(word[:])

	if h.Sum() != ref.Sum64() {
		t.Fatalf("Sum = %#x, stdlib = %#x", h.Sum(), ref.Sum64())
	}
}

func TestHashPrimitives(t *testing.T) {
	// Mix is the U64 method.
	m, u := NewHash(), NewHash()
	m.Mix()(42)
	u.U64(42)
	if m.Sum() != u.Sum() {
		t.Fatal("Mix() diverged from U64")
	}
}

func TestMonotone(t *testing.T) {
	type stats struct {
		Up       uint64
		Down     uint64
		Ignored  int     // non-uint64: skipped
		Floating float64 // non-uint64: skipped
	}
	m := NewMonotone()
	var got []string
	report := func(law string) { got = append(got, law) }

	s := stats{Up: 1, Down: 5}
	m.Check(&s, report) // baseline
	if len(got) != 0 {
		t.Fatalf("baseline sweep reported %v", got)
	}

	s.Up = 2
	s.Down = 4 // decrease
	m.Check(&s, report)
	if len(got) != 1 || !strings.Contains(got[0], "Down decreased: 5 -> 4") {
		t.Fatalf("reports = %v", got)
	}

	// Recovery: once the counter re-passes its high-water mark the
	// watcher is quiet again.
	got = nil
	s.Down = 9
	m.Check(&s, report)
	if len(got) != 0 {
		t.Fatalf("recovered counter still reported: %v", got)
	}

	// Nil pointers and non-structs are ignored, not panics.
	m.Check((*stats)(nil), report)
	m.Check(42, report)
	if len(got) != 0 {
		t.Fatalf("degenerate inputs reported %v", got)
	}
}
