package sim

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rnrsim/internal/coherence"
	"rnrsim/internal/prefetch"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fixedExportClock pins the export clock for the duration of a test so
// generated_at is deterministic.
func fixedExportClock(t *testing.T, at time.Time) {
	t.Helper()
	old := exportNow
	exportNow = func() time.Time { return at }
	t.Cleanup(func() { exportNow = old })
}

// TestStampEnvelope pins the export envelope contract: a fixed schema
// version plus an RFC 3339 UTC timestamp.
func TestStampEnvelope(t *testing.T) {
	fixedExportClock(t, time.Date(2026, 1, 2, 3, 4, 5, 987654321, time.FixedZone("X", 7*3600)))
	schema, generated := Stamp()
	if schema != "rnrsim.v1" {
		t.Fatalf("schema = %q, want %q", schema, "rnrsim.v1")
	}
	if schema != ExportSchemaVersion {
		t.Fatalf("Stamp schema %q != ExportSchemaVersion %q", schema, ExportSchemaVersion)
	}
	// Sub-second precision is dropped and the zone normalised to UTC.
	if generated != "2026-01-01T20:04:05Z" {
		t.Fatalf("generated_at = %q, want 2026-01-01T20:04:05Z", generated)
	}
}

// TestExportEnvelopeGolden locks the full export serialisation of a
// fixed Result against a golden file, envelope included. Run with
// -update to regenerate after an intentional schema change (which
// should also bump ExportSchemaVersion).
func TestExportEnvelopeGolden(t *testing.T) {
	fixedExportClock(t, time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC))
	r := &Result{
		ConfigName:   "pagerank/urand/none/",
		Prefetcher:   PFNone,
		App:          "pagerank",
		Input:        "urand",
		Cycles:       1000,
		Instructions: 1700,
		Iterations:   4,
		IterEnd:      []uint64{200, 400, 700, 1000},
		GroupIterEnd: [][]uint64{{200, 400, 700, 1000}, {350, 900}},
		InputBytes:   4096,
		Check:        42.5,
		CoreHashes:   []uint64{0x0123456789abcdef, 0xfedcba9876543210},
		Coherence:    &coherence.Stats{Upgrades: 3, Invalidations: 5, Downgrades: 2, Fills: 40, Evicts: 31},
		CrossCore:    &prefetch.CrossCoreStats{Trained: 12, Lookups: 9, Issued: 7, Dropped: 2},
	}
	got, err := json.MarshalIndent(r.Export(), "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "export_envelope.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("export drifted from golden (regenerate with -update and bump ExportSchemaVersion if intentional)\n got: %s\nwant: %s", got, want)
	}
	// The envelope must lead the document so consumers can sniff it
	// without parsing the whole export.
	head := `{
  "schema_version": "rnrsim.v1",
  "generated_at": "2026-01-02T03:04:05Z",`
	if !strings.HasPrefix(string(got), head) {
		t.Errorf("export does not start with the envelope:\n%s", got[:min(len(got), 120)])
	}
}
