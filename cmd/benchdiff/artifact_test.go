package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchText = `goos: linux
goarch: amd64
pkg: rnrsim/internal/sim
cpu: some CPU
BenchmarkSimulatorThroughput-8   	       1	 95000000 ns/op	   1.2e+06 cycles/s	 5000000 B/op	   12345 allocs/op
BenchmarkSimulatorThroughput/obs-8   	   1	100000000 ns/op	   1.1e+06 cycles/s	 5100000 B/op	   12400 allocs/op
PASS
ok  	rnrsim/internal/sim	1.2s
pkg: rnrsim/internal/telemetry
BenchmarkCounterInc-8           	1000000	       2.1 ns/op	       0 B/op	       0 allocs/op
ok  	rnrsim/internal/telemetry	0.5s
`

func TestParseBenchOutput(t *testing.T) {
	art, err := parseBenchOutput(strings.NewReader(benchText))
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(art.Benchmarks), art.Benchmarks)
	}
	byName := map[string]Bench{}
	for _, b := range art.Benchmarks {
		byName[b.Name] = b
	}
	st, ok := byName["SimulatorThroughput"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %+v", art.Benchmarks)
	}
	if st.Metrics["cycles/s"] != 1.2e6 || st.Metrics["ns/op"] != 95000000 {
		t.Errorf("metrics = %+v", st.Metrics)
	}
	if _, ok := byName["SimulatorThroughput/obs"]; !ok {
		t.Error("sub-benchmark name lost")
	}
	if byName["CounterInc"].Metrics["ns/op"] != 2.1 {
		t.Errorf("CounterInc = %+v", byName["CounterInc"])
	}
}

func TestParseKeepsLaterDuplicate(t *testing.T) {
	text := "BenchmarkX-4 1 100 ns/op\nBenchmarkX-4 1 50 ns/op\n"
	art, err := parseBenchOutput(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Benchmarks) != 1 || art.Benchmarks[0].Metrics["ns/op"] != 50 {
		t.Errorf("duplicates not collapsed to the later run: %+v", art.Benchmarks)
	}
}

func mkArtifact(metrics map[string]map[string]float64) Artifact {
	var a Artifact
	for name, m := range metrics {
		a.Benchmarks = append(a.Benchmarks, Bench{Name: name, Iters: 1, Metrics: m})
	}
	return a
}

func TestDiffDirectionAware(t *testing.T) {
	old := mkArtifact(map[string]map[string]float64{
		"Sim": {"cycles/s": 1e6, "ns/op": 100},
	})
	// cycles/s fell 20%, ns/op rose 20%: both are regressions at 10%.
	cur := mkArtifact(map[string]map[string]float64{
		"Sim": {"cycles/s": 0.8e6, "ns/op": 120},
	})
	d := diff(old, cur, 0.10)
	if len(d.Regressions) != 2 {
		t.Fatalf("regressions = %+v, want 2", d.Regressions)
	}
	// The same moves pass a 50% threshold.
	if d := diff(old, cur, 0.50); len(d.Regressions) != 0 {
		t.Errorf("lenient threshold still flagged: %+v", d.Regressions)
	}
	// Moves in the good direction are never regressions, however large.
	better := mkArtifact(map[string]map[string]float64{
		"Sim": {"cycles/s": 5e6, "ns/op": 10},
	})
	if d := diff(old, better, 0.01); len(d.Regressions) != 0 {
		t.Errorf("improvements flagged as regressions: %+v", d.Regressions)
	}
}

func TestDiffDisjointBenchmarks(t *testing.T) {
	old := mkArtifact(map[string]map[string]float64{
		"Gone": {"ns/op": 1}, "Shared": {"ns/op": 1}})
	cur := mkArtifact(map[string]map[string]float64{
		"Fresh": {"ns/op": 1}, "Shared": {"ns/op": 1}})
	d := diff(old, cur, 0.10)
	if len(d.OnlyOld) != 1 || d.OnlyOld[0] != "Gone" {
		t.Errorf("OnlyOld = %v", d.OnlyOld)
	}
	if len(d.OnlyNew) != 1 || d.OnlyNew[0] != "Fresh" {
		t.Errorf("OnlyNew = %v", d.OnlyNew)
	}
	// Appearing/disappearing benchmarks never fail the diff.
	if len(d.Regressions) != 0 {
		t.Errorf("regressions = %+v", d.Regressions)
	}
}

func TestDiffZeroBaseline(t *testing.T) {
	old := mkArtifact(map[string]map[string]float64{"Z": {"allocs/op": 0}})
	cur := mkArtifact(map[string]map[string]float64{"Z": {"allocs/op": 5}})
	// A zero baseline cannot produce a relative change; it must not
	// panic or divide by zero, and is reported without a verdict.
	d := diff(old, cur, 0.10)
	if len(d.Regressions) != 0 || len(d.Deltas) != 1 {
		t.Errorf("diff = %+v", d)
	}
}

func TestWriteDiff(t *testing.T) {
	old := mkArtifact(map[string]map[string]float64{"Sim": {"ns/op": 100}})
	cur := mkArtifact(map[string]map[string]float64{"Sim": {"ns/op": 200}})
	d := diff(old, cur, 0.10)
	var b strings.Builder
	d.write(&b, "fc150d6", "abc1234")
	out := b.String()
	for _, want := range []string{"fc150d6", "abc1234", "<< REGRESSION", "+100.0%", "1 regression(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
}

// perfbenchOut is a perfbench stdout: notes, then the JSON result line.
const perfbenchOut = `perfbench: workload corun-coherent seed 1 seconds 20 trace 0
  alloc_mb_per_minstr            1.2 MB/Minstr
{"correct":true,"attempted":3,"failed":0,"metrics":{"alloc_mb_per_minstr":{"value":1.2,"unit":"MB/Minstr"},"sim_minstr_per_s":{"value":2.5,"unit":"Minstr/s"},"sim_ipc":{"value":0.8,"unit":"instr/cycle"},"rnr_speedup":{"value":1.1,"unit":"x"},"ok_frac":{"value":1,"unit":"fraction"},"setup_s":{"value":0.4,"unit":"s"}}}

`

func TestFoldPerfbench(t *testing.T) {
	b, err := foldPerfbench("corun-coherent", strings.NewReader(perfbenchOut))
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != "perfbench/corun-coherent" || b.Metrics["alloc_mb_per_minstr"] != 1.2 ||
		b.Units["sim_minstr_per_s"] != "Minstr/s" || len(b.Metrics) != 6 {
		t.Fatalf("folded bench = %+v", b)
	}

	// Each metric's direction follows its unit: a faster, leaner run is
	// no regression, and every metric moved 50% the wrong way is one.
	better, worse := b, Bench{Name: b.Name, Units: b.Units, Metrics: map[string]float64{}}
	better.Metrics = map[string]float64{}
	for name, v := range b.Metrics {
		up := higherIsBetter(b.unit(name))
		if up {
			better.Metrics[name], worse.Metrics[name] = v*1.5, v*0.5
		} else {
			better.Metrics[name], worse.Metrics[name] = v*0.5, v*1.5
		}
	}
	for _, u := range []string{"Minstr/s", "instr/cycle", "x", "fraction"} {
		if !higherIsBetter(u) {
			t.Errorf("higherIsBetter(%q) = false", u)
		}
	}
	for _, u := range []string{"MB/Minstr", "s", "ms", "MB"} {
		if higherIsBetter(u) {
			t.Errorf("higherIsBetter(%q) = true", u)
		}
	}
	old := Artifact{Benchmarks: []Bench{b}}
	if d := diff(old, Artifact{Benchmarks: []Bench{better}}, 0.10); len(d.Regressions) != 0 {
		t.Errorf("improvements flagged: %+v", d.Regressions)
	}
	if d := diff(old, Artifact{Benchmarks: []Bench{worse}}, 0.10); len(d.Regressions) != 6 {
		t.Errorf("%d of 6 worsened metrics flagged: %+v", len(d.Regressions), d.Regressions)
	}
}

func TestFoldPerfbenchRefusesBadRuns(t *testing.T) {
	incorrect := strings.Replace(perfbenchOut, `"correct":true`, `"correct":false`, 1)
	for name, text := range map[string]string{
		"incorrect": incorrect,
		"no json":   "perfbench: workload solo-fig6\nbuild failed\n",
		"empty":     "",
	} {
		if _, err := foldPerfbench("solo-fig6", strings.NewReader(text)); err == nil {
			t.Errorf("%s: folded without error", name)
		}
	}
	var p perfbenchRuns
	for _, v := range []string{"solo-fig6", "=f.txt", "solo-fig6="} {
		if err := p.Set(v); err == nil {
			t.Errorf("-perfbench %q accepted", v)
		}
	}
	if err := p.Set("solo-fig6=a.txt"); err != nil {
		t.Fatal(err)
	}
	if err := p.Set("solo-fig6=b.txt"); err == nil {
		t.Error("a workload given twice was accepted")
	}
}

func TestRunParseFoldsPerfbench(t *testing.T) {
	dir := t.TempDir()
	pb, out := filepath.Join(dir, "corun.txt"), filepath.Join(dir, "BENCH_c.json")
	if err := os.WriteFile(pb, []byte(perfbenchOut), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runParse(strings.NewReader(benchText), out, "c", perfbenchRuns{{"corun-coherent", pb}}); err != nil {
		t.Fatal(err)
	}
	art, err := loadArtifact(out)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, b := range art.Benchmarks {
		names = append(names, b.Name)
	}
	want := "CounterInc SimulatorThroughput SimulatorThroughput/obs perfbench/corun-coherent"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("benchmarks = %s, want %s", got, want)
	}
	if u := art.Benchmarks[3].Units["alloc_mb_per_minstr"]; u != "MB/Minstr" {
		t.Errorf("unit of alloc_mb_per_minstr = %q after the JSON round trip", u)
	}
}
