package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"rnrsim/internal/sim"
)

// RunExport pairs a memoised run key ("workload/input/prefetcher/tag",
// or a CoRunKey) with its machine-readable result, flattened into one
// JSON object. The embedded ResultJSON carries the export envelope
// (schema_version/generated_at), so each record is self-describing even
// when extracted from the surrounding SuiteExport.
type RunExport struct {
	Key string `json:"key"`
	sim.ResultJSON
}

// SuiteExport is the machine-readable dump of every result a suite has
// simulated, wrapped in the export envelope so cached artefacts remain
// self-describing.
type SuiteExport struct {
	SchemaVersion string      `json:"schema_version"`
	GeneratedAt   string      `json:"generated_at"`
	Results       []RunExport `json:"results"`
}

// Export wraps Exports in the stamped envelope.
func (s *Suite) Export() SuiteExport {
	schema, generated := sim.Stamp()
	return SuiteExport{
		SchemaVersion: schema,
		GeneratedAt:   generated,
		Results:       s.Exports(),
	}
}

// Exports returns every result the suite has simulated so far, sorted by
// key, as JSON-ready records. In-flight runs are waited for; failed runs
// are skipped.
func (s *Suite) Exports() []RunExport {
	s.mu.Lock()
	keys := make([]string, 0, len(s.results))
	calls := make([]*runCall, 0, len(s.results))
	for k := range s.results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		calls = append(calls, s.results[k])
	}
	s.mu.Unlock()
	out := make([]RunExport, 0, len(keys))
	for i, c := range calls {
		<-c.done
		if c.err != nil || c.res == nil {
			continue
		}
		out = append(out, RunExport{Key: keys[i], ResultJSON: c.res.Export()})
	}
	return out
}

// WriteResultsJSON writes every memoised result as one indented JSON
// envelope ({schema_version, generated_at, results: [...]}) — the
// machine-readable companion to the text tables, so bench trajectories
// can be generated without parsing the table output.
func (s *Suite) WriteResultsJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Export())
}

// WriteResultsFile writes the JSON results next to the text tables.
func (s *Suite) WriteResultsFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	if err := s.WriteResultsJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("bench: write %s: %w", path, err)
	}
	return f.Close()
}
