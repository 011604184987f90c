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
	if c.Dropped() != 1 {
		t.Fatalf("dropped %d, want 1", c.Dropped())
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
	// Int sign-extends: -1 and ^uint64(0) hash alike, -1 and 1 differ.
	a, b := NewHash(), NewHash()
	a.Int(-1)
	b.U64(^uint64(0))
	if a.Sum() != b.Sum() {
		t.Fatal("Int(-1) should fold as all-ones")
	}
	cpos := NewHash()
	cpos.Int(1)
	if cpos.Sum() == a.Sum() {
		t.Fatal("Int(1) collided with Int(-1)")
	}

	// Bool folds distinct bytes.
	bt, bf := NewHash(), NewHash()
	bt.Bool(true)
	bf.Bool(false)
	if bt.Sum() == bf.Sum() {
		t.Fatal("Bool(true) collided with Bool(false)")
	}

	// Str length prefix: "ab"+"c" != "a"+"bc".
	s1, s2 := NewHash(), NewHash()
	s1.Str("ab")
	s1.Str("c")
	s2.Str("a")
	s2.Str("bc")
	if s1.Sum() == s2.Sum() {
		t.Fatal(`Str("ab","c") collided with Str("a","bc")`)
	}

	// Mix is the U64 method.
	m, u := NewHash(), NewHash()
	m.Mix()(42)
	u.U64(42)
	if m.Sum() != u.Sum() {
		t.Fatal("Mix() diverged from U64")
	}
}

// TestHashWordsOrderIndependentUse checks the XOR-combine idiom the
// components use for map state: per-entry digests XORed together are
// insensitive to iteration order but sensitive to entry content.
func TestHashWordsOrderIndependentUse(t *testing.T) {
	entries := [][2]uint64{{1, 10}, {2, 20}, {3, 30}}
	var fwd, rev uint64
	for _, e := range entries {
		fwd ^= HashWords(e[0], e[1])
	}
	for i := len(entries) - 1; i >= 0; i-- {
		rev ^= HashWords(entries[i][0], entries[i][1])
	}
	if fwd != rev {
		t.Fatal("XOR combine is order-dependent")
	}
	mutated := fwd ^ HashWords(3, 30) ^ HashWords(3, 31)
	if mutated == fwd {
		t.Fatal("entry mutation did not change combined digest")
	}
	if HashWords(1, 2) == HashWords(2, 1) {
		t.Fatal("HashWords should be order-sensitive within one entry")
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

func TestFuzzDeterministicAndShaped(t *testing.T) {
	cfg := FuzzConfig{Seed: 7, Pathological: true}
	a1 := Fuzz(cfg)
	a2 := Fuzz(cfg)
	if a1.Records() == 0 {
		t.Fatal("fuzzed app is empty")
	}
	if a1.Cores != 2 || len(a1.Traces) != 2 {
		t.Fatalf("defaults: cores=%d traces=%d", a1.Cores, len(a1.Traces))
	}
	for c := range a1.Traces {
		if len(a1.Traces[c]) != len(a2.Traces[c]) {
			t.Fatalf("core %d: nondeterministic length %d vs %d",
				c, len(a1.Traces[c]), len(a2.Traces[c]))
		}
		for i := range a1.Traces[c] {
			if a1.Traces[c][i] != a2.Traces[c][i] {
				t.Fatalf("core %d record %d differs between builds", c, i)
			}
		}
	}
	if Fuzz(FuzzConfig{Seed: 8, Pathological: true}).Records() == a1.Records() {
		t.Log("seeds 7 and 8 coincidentally same length (allowed, just unlikely)")
	}

	// Loads stay inside the declared target region.
	target := a1.Targets[0]
	for c, recs := range a1.Traces {
		for i, r := range recs {
			if r.Kind == 1 || r.Kind == 2 { // load/store
				if !target.Contains(r.Addr) {
					t.Fatalf("core %d rec %d: %#x outside target %v", c, i, uint64(r.Addr), target)
				}
			}
		}
	}
}
