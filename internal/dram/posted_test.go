package dram

import (
	"strings"
	"testing"

	"rnrsim/internal/mem"
)

func auditLaws(c *Controller) []string {
	var laws []string
	c.AuditInvariants(func(law string) { laws = append(laws, law) })
	return laws
}

// TestPostedRequestsAreCopied: writebacks, metadata writes and posted
// metadata reads may all come from one scratch request the issuer refills
// between calls; each queued copy keeps its own fields.
func TestPostedRequestsAreCopied(t *testing.T) {
	c := newController(testConfig())
	var scratch mem.Request
	post := func(typ mem.ReqType, a mem.Addr) {
		scratch.Init(typ, a, 0, 0, 0)
		if !c.TryEnqueue(&scratch) {
			t.Fatalf("%s %#x rejected", typ, uint64(a))
		}
	}
	post(mem.ReqWriteback, 0x1000)
	post(mem.ReqWriteback, 0x2000)
	post(mem.ReqMetaWrite, 0x3000)
	post(mem.ReqMetaWrite, 0x4000)
	post(mem.ReqMetaRead, 0x5000)
	post(mem.ReqMetaRead, 0x6000)
	scratch.Init(mem.ReqLoad, 0x9999, 0, 0, 0)

	lines := func(q []queued) []mem.Addr {
		var out []mem.Addr
		for _, e := range q {
			if e.req == &scratch {
				t.Fatal("a queue entry aliases the issuer's scratch request")
			}
			out = append(out, e.req.Line)
		}
		return out
	}
	if got := lines(c.writeQ); len(got) != 4 || got[0] != 0x1000 || got[1] != 0x2000 ||
		got[2] != 0x3000 || got[3] != 0x4000 {
		t.Errorf("write queue lines = %#x", got)
	}
	if c.writeQ[2].req.Type != mem.ReqMetaWrite || c.writeQ[1].req.Type != mem.ReqWriteback {
		t.Error("a write copy lost its type")
	}
	if got := lines(c.readQ); len(got) != 2 || got[0] != 0x5000 || got[1] != 0x6000 {
		t.Errorf("read queue lines = %#x", got)
	}
	if laws := auditLaws(c); len(laws) > 0 {
		t.Fatalf("audit: %v", laws)
	}
	drive(c, 2000)
	if c.Pending() != 0 {
		t.Fatalf("%d requests still pending", c.Pending())
	}
	s := c.Stats
	if s.Writebacks != 2 || s.MetaWrites != 2 || s.MetaReads != 2 {
		t.Errorf("retired writebacks %d, meta writes %d, meta reads %d; want 2 each",
			s.Writebacks, s.MetaWrites, s.MetaReads)
	}
	if c.posted.Live() != 0 {
		t.Errorf("%d posted copies still live after the controller drained", c.posted.Live())
	}
	if laws := auditLaws(c); len(laws) > 0 {
		t.Fatalf("audit after drain: %v", laws)
	}
}

// TestPostedDoubleReleaseIsReported: releasing a retired write's copy a
// second time breaks the ownership law.
func TestPostedDoubleReleaseIsReported(t *testing.T) {
	c := newController(testConfig())
	wb := mem.NewRequest(mem.ReqWriteback, 0x1000, 0, -1, 0)
	c.TryEnqueue(wb)
	cp := c.writeQ[0].req
	drive(c, 500)
	if laws := auditLaws(c); len(laws) > 0 {
		t.Fatalf("audit after a clean run: %v", laws)
	}
	c.posted.Release(cp) // issueWrite already released it
	laws := auditLaws(c)
	if len(laws) != 1 || !strings.Contains(laws[0], "posted-request ownership") {
		t.Fatalf("double release reported as %v, want one ownership violation", laws)
	}
}
