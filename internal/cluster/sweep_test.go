package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rnrsim/internal/apps"
	"rnrsim/internal/bench"
	"rnrsim/internal/serve"
	"rnrsim/internal/sim"
)

// repeated returns n copies of s.
func repeated(s string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// TestSweepExpandCapsGrid pins the grid cap: every distinct cell over
// the fixed wire names fits under it, a grid of exactly maxSweepCells
// raw cells expands, one more is refused, and a grid whose raw product
// overflows int is refused before any cell is walked.
func TestSweepExpandCapsGrid(t *testing.T) {
	var full SweepSpec
	for _, wl := range apps.Workloads {
		for _, in := range apps.InputsFor(wl) {
			full.Workloads = append(full.Workloads, wl+"."+in)
		}
	}
	for _, pf := range sim.AllPrefetchers {
		full.Prefetchers = append(full.Prefetchers, string(pf))
	}
	full.Variants = bench.VariantNames()
	full.Scales = serve.ScaleNames
	specs, err := full.expand("test")
	if err != nil {
		t.Fatalf("full fixed-name grid refused: %v", err)
	}
	want := len(full.Workloads) * len(full.Prefetchers) * len(full.Variants) * len(full.Scales)
	if len(specs) != want {
		t.Errorf("full grid expanded to %d cells, want %d distinct", len(specs), want)
	}

	atCap := SweepSpec{
		Workloads:   []string{"pagerank.urand"},
		Prefetchers: repeated("none", 256),
		Variants:    repeated("", maxSweepCells/256),
	}
	specs, err = atCap.expand("test")
	if err != nil {
		t.Fatalf("grid of exactly %d raw cells refused: %v", maxSweepCells, err)
	}
	if len(specs) != 1 {
		t.Errorf("repeated-name grid expanded to %d cells, want 1", len(specs))
	}
	over := atCap
	over.Prefetchers = repeated("none", 257)
	if _, err := over.expand("test"); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("grid over the cap: err = %v, want a cap error", err)
	}

	// 2^16 per list is 2^64 raw cells: a naive product wraps to 0.
	huge := SweepSpec{
		Workloads:   repeated("pagerank.urand", 1<<16),
		Prefetchers: repeated("none", 1<<16),
		Variants:    repeated("", 1<<16),
		Scales:      repeated("test", 1<<16),
	}
	if _, err := huge.expand("test"); err == nil {
		t.Error("2^64-cell grid accepted")
	}
}

// TestSweepGridCapHTTP sends the hostile sweep body — under
// serve.MaxBodyBytes, yet over 10^18 raw cells — to the coordinator's
// HTTP handler: it must answer 400 at once and register no sweep.
func TestSweepGridCapHTTP(t *testing.T) {
	c := newTestCoordinator(t, Config{}, newTestWorker(t, "w1"))
	ts := httptest.NewServer(NewServer(c))
	defer ts.Close()

	const n = 40_000 // 40,000^4 = 2.56e18 cells
	body, err := json.Marshal(SweepSpec{
		Workloads:   repeated("pagerank.urand", n),
		Prefetchers: repeated("", n),
		Variants:    repeated("", n),
		Scales:      repeated("", n),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(body) >= serve.MaxBodyBytes {
		t.Fatalf("body is %d bytes; it must fit under the %d-byte cap", len(body), serve.MaxBodyBytes)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "exceeds") {
		t.Errorf("status %d, body %s; want 400 naming the cell cap", resp.StatusCode, msg)
	}
	if n := len(c.Sweeps()); n != 0 {
		t.Errorf("%d sweeps registered after a refused grid", n)
	}
}
