package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Artifact is one BENCH_*.json perf-trajectory point: every benchmark
// the suite ran, under the same rnrsim.v1 envelope as the simulator's
// result exports so downstream tooling shares one schema check.
type Artifact struct {
	SchemaVersion string  `json:"schema_version"`
	GeneratedAt   string  `json:"generated_at"`
	Commit        string  `json:"commit,omitempty"`
	Benchmarks    []Bench `json:"benchmarks"`
}

// Bench is one benchmark's measurements: the standard testing metrics
// plus any custom b.ReportMetric units (cycles/s, ...), keyed by unit.
// A folded perfbench run keys its metrics by name instead and lists each
// name's unit in Units.
type Bench struct {
	Name    string             `json:"name"`
	Iters   uint64             `json:"iters"`
	Metrics map[string]float64 `json:"metrics"`
	Units   map[string]string  `json:"units,omitempty"`
}

// unit returns the unit of metric key: its entry in Units, else the key.
func (b Bench) unit(key string) string {
	if u, ok := b.Units[key]; ok {
		return u
	}
	return key
}

// foldPerfbench parses one perfbench run's standard output, whose last
// non-empty line is its JSON result, into the Bench
// "perfbench/<workload>". A run that reports correct=false is refused:
// its numbers come from a simulator whose state hashes did not match.
func foldPerfbench(workload string, r io.Reader) (Bench, error) {
	var last string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return Bench{}, err
	}
	var res struct {
		Correct *bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil || res.Correct == nil || len(res.Metrics) == 0 {
		return Bench{}, fmt.Errorf("perfbench %s: last line is not a perfbench result: %.80q", workload, last)
	}
	if !*res.Correct {
		return Bench{}, fmt.Errorf("perfbench %s: run reports correct=false", workload)
	}
	b := Bench{
		Name:    "perfbench/" + workload,
		Iters:   1,
		Metrics: make(map[string]float64, len(res.Metrics)),
		Units:   make(map[string]string, len(res.Metrics)),
	}
	for name, m := range res.Metrics {
		b.Metrics[name] = m.Value
		b.Units[name] = m.Unit
	}
	return b, nil
}

// gomaxprocsSuffix strips the "-8" GOMAXPROCS tail from a benchmark
// name so artifacts recorded on machines with different core counts
// still line up. Sub-benchmark names keep their full path.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBenchOutput reads `go test -bench` text: lines of the form
//
//	BenchmarkName-8   100   123 ns/op   5.0e+06 cycles/s   16 B/op   2 allocs/op
//
// interleaved with ok/PASS noise, which is skipped. A benchmark that
// appears more than once (same name from several packages, or -count >
// 1) keeps the later measurement.
func parseBenchOutput(r io.Reader) (Artifact, error) {
	var art Artifact
	index := map[string]int{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Bench{
			Name:    gomaxprocsSuffix.ReplaceAllString(strings.TrimPrefix(fields[0], "Benchmark"), ""),
			Iters:   iters,
			Metrics: map[string]float64{},
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return art, fmt.Errorf("bad metric value in %q", line)
			}
			b.Metrics[fields[i+1]] = v
		}
		if at, ok := index[b.Name]; ok {
			art.Benchmarks[at] = b
			continue
		}
		index[b.Name] = len(art.Benchmarks)
		art.Benchmarks = append(art.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return art, err
	}
	sort.Slice(art.Benchmarks, func(i, j int) bool {
		return art.Benchmarks[i].Name < art.Benchmarks[j].Name
	})
	return art, nil
}

// higherIsBetter classifies a metric unit's good direction: rates
// (anything per second, perfbench's Minstr/s and 1/s included) and
// perfbench's instr/cycle (IPC), x (speedup) and fraction (ok_frac)
// should go up; costs (ns/op, B/op, allocs/op, any other per-op unit,
// and perfbench's s, ms, MB and MB/Minstr) should go down.
func higherIsBetter(unit string) bool {
	switch unit {
	case "instr/cycle", "x", "fraction":
		return true
	}
	return strings.HasSuffix(unit, "/s")
}

// Delta is one (benchmark, metric) comparison.
type Delta struct {
	Bench, Unit string
	Old, New    float64
	Change      float64 // relative: (new-old)/old
	Regression  bool
}

// Diff is the comparison of two artifacts.
type Diff struct {
	Deltas      []Delta
	Regressions []Delta
	OnlyOld     []string // benchmarks that disappeared
	OnlyNew     []string // benchmarks that appeared
}

func diff(old, cur Artifact, threshold float64) Diff {
	var d Diff
	oldBy := map[string]Bench{}
	for _, b := range old.Benchmarks {
		oldBy[b.Name] = b
	}
	curSeen := map[string]bool{}
	for _, nb := range cur.Benchmarks {
		curSeen[nb.Name] = true
		ob, ok := oldBy[nb.Name]
		if !ok {
			d.OnlyNew = append(d.OnlyNew, nb.Name)
			continue
		}
		units := make([]string, 0, len(nb.Metrics))
		for u := range nb.Metrics {
			if _, ok := ob.Metrics[u]; ok {
				units = append(units, u)
			}
		}
		sort.Strings(units)
		for _, u := range units {
			ov, nv := ob.Metrics[u], nb.Metrics[u]
			delta := Delta{Bench: nb.Name, Unit: u, Old: ov, New: nv}
			if ov != 0 {
				delta.Change = (nv - ov) / ov
			}
			worse := delta.Change > 0
			if higherIsBetter(nb.unit(u)) {
				worse = delta.Change < 0
			}
			if ov != 0 && worse && math.Abs(delta.Change) > threshold {
				delta.Regression = true
				d.Regressions = append(d.Regressions, delta)
			}
			d.Deltas = append(d.Deltas, delta)
		}
	}
	for _, ob := range old.Benchmarks {
		if !curSeen[ob.Name] {
			d.OnlyOld = append(d.OnlyOld, ob.Name)
		}
	}
	return d
}

func (d Diff) write(w io.Writer, oldLabel, newLabel string) {
	if oldLabel == "" {
		oldLabel = "old"
	}
	if newLabel == "" {
		newLabel = "new"
	}
	fmt.Fprintf(w, "%-44s %-10s %14s %14s %9s\n", "benchmark", "metric", oldLabel, newLabel, "change")
	for _, dl := range d.Deltas {
		flag := ""
		if dl.Regression {
			flag = "  << REGRESSION"
		}
		fmt.Fprintf(w, "%-44s %-10s %14.4g %14.4g %+8.1f%%%s\n",
			dl.Bench, dl.Unit, dl.Old, dl.New, dl.Change*100, flag)
	}
	for _, n := range d.OnlyNew {
		fmt.Fprintf(w, "%-44s (new benchmark, no baseline)\n", n)
	}
	for _, n := range d.OnlyOld {
		fmt.Fprintf(w, "%-44s (gone: present only in %s)\n", n, oldLabel)
	}
	if len(d.Regressions) > 0 {
		fmt.Fprintf(w, "\n%d regression(s)\n", len(d.Regressions))
	}
}
