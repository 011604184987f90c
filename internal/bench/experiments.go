package bench

import (
	"fmt"

	"rnrsim/internal/apps"
	"rnrsim/internal/rnr"
	"rnrsim/internal/sim"
)

// Fig1 reproduces Figure 1: miss coverage vs prefetching accuracy of six
// prefetcher classes on PageRank with the amazon graph.
func (s *Suite) Fig1() *Table {
	t := newTable("fig1", "prefetcher", "coverage", "accuracy")
	base := s.Baseline("pagerank", "amazon")
	for _, pf := range []sim.PrefetcherKind{
		sim.PFNextLine, sim.PFBingo, sim.PFMISB, sim.PFSteMS, sim.PFDroplet, sim.PFRnR,
	} {
		r := s.Run("pagerank", "amazon", pf, Variant{})
		t.AddRow(string(pf), pct(r.Coverage(base)*100), pct(r.Accuracy()*100))
	}
	t.Note("paper: RnR lands in the top-right corner (~95%%+/95%%+); " +
		"general-purpose prefetchers are low on both axes")
	return t
}

// TableII reproduces Table II: the baseline machine configuration.
func (s *Suite) TableII() *Table {
	c := s.Config
	t := newTable("tableII", "component", "paper", "this run")
	paper := sim.Baseline()
	t.AddRow("cores", fmt.Sprintf("%d x 4GHz 4-wide OoO", paper.Cores), fmt.Sprintf("%d", c.Cores))
	t.AddRow("ROB/LSQ", fmt.Sprintf("%d/%d", paper.CPU.ROB, paper.CPU.LSQ), fmt.Sprintf("%d/%d", c.CPU.ROB, c.CPU.LSQ))
	t.AddRow("L1D", fmt.Sprintf("%dKB/%dw lat %d", paper.L1.SizeBytes/1024, paper.L1.Ways, paper.L1.Latency),
		fmt.Sprintf("%dKB/%dw lat %d", c.L1.SizeBytes/1024, c.L1.Ways, c.L1.Latency))
	t.AddRow("L2", fmt.Sprintf("%dKB/%dw lat %d", paper.L2.SizeBytes/1024, paper.L2.Ways, paper.L2.Latency),
		fmt.Sprintf("%dKB/%dw lat %d", c.L2.SizeBytes/1024, c.L2.Ways, c.L2.Latency))
	t.AddRow("LLC", fmt.Sprintf("%dMB/%dw lat %d", paper.LLC.SizeBytes/(1<<20), paper.LLC.Ways, paper.LLC.Latency),
		fmt.Sprintf("%dKB/%dw lat %d", c.LLC.SizeBytes/1024, c.LLC.Ways, c.LLC.Latency))
	t.AddRow("memory", fmt.Sprintf("%s rq=%d wq=%d", paper.DRAM.Name, paper.DRAM.ReadQ, paper.DRAM.WriteQ),
		fmt.Sprintf("%s rq=%d wq=%d", c.DRAM.Name, c.DRAM.ReadQ, c.DRAM.WriteQ))
	t.AddRow("write drain", "75%/25%", fmt.Sprintf("%.0f%%/%.0f%%", c.DRAM.DrainHigh*100, c.DRAM.DrainLow*100))
	t.Note("capacities scaled 16x down with the inputs; latencies and queueing unchanged")
	return t
}

// TableIII reproduces Table III: the inputs and their characteristics.
func (s *Suite) TableIII() *Table {
	t := newTable("tableIII", "input", "kind", "n", "edges/nnz", "avg deg", "MB")
	for _, name := range apps.GraphInputOrder {
		g, _ := apps.GraphInput(s.Scale, name)
		st := g.Summary()
		t.AddRow(name, "graph", fmt.Sprint(st.Vertices), fmt.Sprint(st.Edges), f1(st.AvgDegree), f2(st.InputMB))
	}
	for _, name := range apps.MatrixInputOrder {
		m, _ := apps.MatrixInput(s.Scale, name)
		st := m.Summary()
		t.AddRow(name, "matrix", fmt.Sprint(st.N), fmt.Sprint(st.NNZ), f1(st.AvgPerRow), f2(st.InputMB))
	}
	return t
}

// workloadTable runs metric over the full workload x input x
// comparison-set grid, one row per prefetcher with a geomean column per
// workload as the paper's bar charts present it.
func (s *Suite) workloadTable(id, unit string, metric func(r, base *sim.Result) float64) *Table {
	t := newTable(id, "prefetcher")
	type col struct{ w, in string }
	var cols []col
	for _, w := range apps.Workloads {
		for _, in := range apps.InputsFor(w) {
			cols = append(cols, col{w, in})
			t.Header = append(t.Header, w[:2]+":"+in)
		}
		t.Header = append(t.Header, w[:2]+":GM")
		cols = append(cols, col{w, ""})
	}
	union := map[sim.PrefetcherKind]bool{}
	var order []sim.PrefetcherKind
	for _, w := range apps.Workloads {
		for _, pf := range comparisonSet(w) {
			if !union[pf] {
				union[pf] = true
				order = append(order, pf)
			}
		}
	}
	for _, pf := range order {
		row := []string{string(pf)}
		var gm []float64
		for _, c := range cols {
			if c.in == "" { // geomean column
				if len(gm) == 0 {
					row = append(row, "-")
				} else {
					row = append(row, f2(geomean(gm)))
				}
				gm = nil
				continue
			}
			applies := false
			for _, p := range comparisonSet(c.w) {
				if p == pf {
					applies = true
				}
			}
			if !applies {
				row = append(row, "-")
				continue
			}
			base := s.Baseline(c.w, c.in)
			r := s.Run(c.w, c.in, pf, Variant{})
			v := metric(r, base)
			gm = append(gm, v)
			row = append(row, f2(v))
		}
		t.AddRow(row...)
	}
	if unit != "" {
		t.Note("unit: %s", unit)
	}
	return t
}

// Fig6 reproduces Figure 6: speedup over the no-prefetcher baseline,
// composed to 100 iterations (record amortised over 99 replays).
func (s *Suite) Fig6() *Table {
	t := s.workloadTable("fig6", "x",
		func(r, base *sim.Result) float64 { return r.ComposedSpeedup(base, s.ComposeIters) })
	// Append the ideal (infinite LLC) bound.
	row := []string{"ideal-llc"}
	var gm []float64
	for _, w := range apps.Workloads {
		for _, in := range apps.InputsFor(w) {
			base := s.Baseline(w, in)
			id := s.Ideal(w, in)
			v := id.ComposedSpeedup(base, s.ComposeIters)
			gm = append(gm, v)
			row = append(row, f2(v))
		}
		row = append(row, f2(geomean(gm)))
		gm = nil
	}
	t.AddRow(row...)
	t.Note("paper: RnR ~2.11x PageRank, ~2.23x Hyper-Anf, ~2.90x spCG; "+
		"general-purpose prefetchers near 1x on urand, competitive on roadUSA; iters=%d", s.ComposeIters)
	return t
}

// Fig7 reproduces Figure 7: L2 MPKI.
func (s *Suite) Fig7() *Table {
	t := newTable("fig7", "config")
	type col struct{ w, in string }
	var cols []col
	for _, w := range apps.Workloads {
		for _, in := range apps.InputsFor(w) {
			cols = append(cols, col{w, in})
			t.Header = append(t.Header, w[:2]+":"+in)
		}
	}
	addRow := func(name string, get func(w, in string) *sim.Result) {
		row := []string{name}
		for _, c := range cols {
			row = append(row, f1(get(c.w, c.in).L2MPKI()))
		}
		t.AddRow(row...)
	}
	addRow("baseline", func(w, in string) *sim.Result { return s.Baseline(w, in) })
	addRow("rnr", func(w, in string) *sim.Result { return s.Run(w, in, sim.PFRnR, Variant{}) })
	addRow("rnr-combined", func(w, in string) *sim.Result { return s.Run(w, in, sim.PFRnRCombined, Variant{}) })
	t.Note("paper: RnR-Combined cuts demand miss ratio by 97.3%%/94.6%%/98.9%% " +
		"(PageRank/Hyper-Anf/spCG); urand and com-orkut still halve MPKI")
	return t
}

// Fig8 reproduces Figure 8: miss coverage.
func (s *Suite) Fig8() *Table {
	t := s.workloadTable("fig8", "fraction",
		func(r, base *sim.Result) float64 { return r.Coverage(base) })
	t.Note("paper: RnR averages 91.4%%/84.5%%/88.7%% coverage")
	return t
}

// Fig9 reproduces Figure 9: prefetch accuracy.
func (s *Suite) Fig9() *Table {
	t := s.workloadTable("fig9", "fraction",
		func(r, base *sim.Result) float64 { return r.Accuracy() })
	t.Note("paper: RnR averages 97.18%% accuracy; bingo/SteMS lowest on " +
		"irregular inputs, ~50%% on roadUSA")
	return t
}

// timingControls is the Fig. 10/11 control sweep.
var timingControls = []rnr.TimingControl{
	rnr.NoControl, rnr.WindowControl, rnr.WindowPaceControl,
}

// Fig10 reproduces Figure 10: effectiveness of replay timing control.
func (s *Suite) Fig10() *Table {
	t := newTable("fig10", "control")
	type col struct{ w, in string }
	var cols []col
	for _, w := range apps.Workloads {
		for _, in := range apps.InputsFor(w) {
			cols = append(cols, col{w, in})
			t.Header = append(t.Header, w[:2]+":"+in)
		}
	}
	t.Header = append(t.Header, "GM")
	for _, ctl := range timingControls {
		row := []string{ctl.String()}
		var gm []float64
		for _, c := range cols {
			base := s.Baseline(c.w, c.in)
			r := s.RnRWithControl(c.w, c.in, ctl)
			v := r.ComposedSpeedup(base, s.ComposeIters)
			gm = append(gm, v)
			row = append(row, f2(v))
		}
		row = append(row, f2(geomean(gm)))
		t.AddRow(row...)
	}
	t.Note("paper: replay without window control cannot improve performance; " +
		"window control recovers ~2.31x; pace adds little on top")
	return t
}

// Fig11 reproduces Figure 11: prefetch timeliness breakdown under the
// three control modes.
func (s *Suite) Fig11() *Table {
	t := newTable("fig11", "workload/input", "control", "on-time", "early", "late", "out-of-window")
	for _, w := range apps.Workloads {
		for _, in := range apps.InputsFor(w) {
			for _, ctl := range timingControls {
				r := s.RnRWithControl(w, in, ctl)
				tl := r.TimelinessBreakdown()
				t.AddRow(w+"/"+in, ctl.String(),
					pct(tl.OnTime*100), pct(tl.Early*100), pct(tl.Late*100), pct(tl.OutOfWindow*100))
			}
		}
	}
	t.Note("paper: with window control most prefetches are on time; only " +
		"urand shows 7-8%% early/late; pace control trims early by 3-4%% there")
	return t
}

// Fig12 reproduces Figure 12: additional off-chip traffic.
func (s *Suite) Fig12() *Table {
	t := s.workloadTable("fig12", "%",
		func(r, base *sim.Result) float64 { return r.AdditionalTrafficPct(base) })
	t.Note("paper averages: next-line 45.2%%, bingo 67.1%%, SteMS 58.4%%, " +
		"MISB 19.7%%, DROPLET 12.2%%, RnR 12.0%%, RnR-Combined 27.6%%; " +
		"RnR's extra traffic is metadata, not useless prefetches")
	return t
}

// Fig13 reproduces Figure 13: RnR metadata storage overhead.
func (s *Suite) Fig13() *Table {
	t := newTable("fig13", "workload", "input", "seq KB", "div KB", "input KB", "overhead")
	for _, w := range apps.Workloads {
		var gm []float64
		for _, in := range apps.InputsFor(w) {
			r := s.Run(w, in, sim.PFRnR, Variant{})
			ov := r.StorageOverheadPct()
			gm = append(gm, ov)
			t.AddRow(w, in,
				f1(float64(r.RnR.SeqTableBytes)/1024),
				f1(float64(r.RnR.DivTableBytes)/1024),
				f1(float64(r.InputBytes)/1024),
				pct(ov))
		}
		t.AddRow(w, "MEAN", "", "", "", pct(mean(gm)))
	}
	t.Note("paper: 12.1%%/11.58%%/13.0%% average for PageRank/Hyper-Anf/spCG; " +
		"roadUSA lowest (7.64%%), urand highest (22.43%%)")
	return t
}

// WindowVariant sets the RnR window size in lines (Fig. 14 sweep).
func WindowVariant(win uint64) Variant {
	return Variant{
		Tag:    fmt.Sprintf("win%d", win),
		Mutate: func(c *sim.Config) { c.RnRWindow = win },
	}
}

// Fig14 reproduces Figure 14: speedup and storage vs window size.
func (s *Suite) Fig14() *Table {
	t := newTable("fig14", "window (lines)", "geomean speedup", "avg storage overhead")
	// Representative subset to keep the sweep tractable: one input per
	// workload, as the paper's figure reports averages.
	picks := [][2]string{{"pagerank", "amazon"}, {"hyperanf", "urand"}, {"spcg", "bbmat"}}
	for _, win := range []uint64{16, 64, 128, 256, 512, 1024, 2048} {
		var sps, ovs []float64
		for _, p := range picks {
			base := s.Baseline(p[0], p[1])
			r := s.Run(p[0], p[1], sim.PFRnR, WindowVariant(win))
			sps = append(sps, r.ComposedSpeedup(base, s.ComposeIters))
			ovs = append(ovs, r.StorageOverheadPct())
		}
		t.AddRow(fmt.Sprint(win), f2(geomean(sps)), pct(mean(ovs)))
	}
	t.Note("paper: 64-2048 lines perform alike; below 64 speedup collapses " +
		"and the division table bloats. Here the adaptive lead decouples " +
		"prefetch distance from window size, so the plateau extends to " +
		"small windows; the division-table cost still grows as 1/window")
	return t
}

// TableIV reproduces Table IV: qualitative comparison of design points.
func (s *Suite) TableIV() *Table {
	t := newTable("tableIV", "design", "class", "trigger", "metadata", "software hint",
		"timing control")
	t.AddRow("MISB", "temporal", "miss+PC", "off-chip + 49KB cache", "none", "degree<=8")
	t.AddRow("Bingo", "spatial", "region trigger", "on-chip tables", "none", "footprint burst")
	t.AddRow("SteMS", "spatio-temporal", "stream match", "on-chip tables", "none", "stream rate")
	t.AddRow("DROPLET", "domain (graph)", "edge fill", "none", "data-structure regions", "dependent fetch")
	t.AddRow("RnR", "record-replay", "software replay", "in-memory seq+div tables, 1KB/core", "regions + phases", "window + pace")
	return t
}

// RecordOverhead reproduces §VII-A.6: the record iteration's slowdown.
func (s *Suite) RecordOverhead() *Table {
	t := newTable("record-overhead", "workload", "input", "overhead")
	var all []float64
	for _, w := range apps.Workloads {
		for _, in := range apps.InputsFor(w) {
			base := s.Baseline(w, in)
			r := s.Run(w, in, sim.PFRnR, Variant{})
			ov := r.RecordOverheadPct(base)
			all = append(all, ov)
			t.AddRow(w, in, pct(ov))
		}
	}
	t.AddRow("MEAN", "", pct(mean(all)))
	t.Note("paper: 1.02%% average, worst case PageRank/urand at 1.75%%")
	return t
}

// HardwareOverhead reproduces §VII-B: the per-core hardware budget.
func (s *Suite) HardwareOverhead() *Table {
	t := newTable("hw-overhead", "item", "bits", "arch", "saved on switch")
	b := rnr.Budget()
	for _, it := range b.Items {
		t.AddRow(it.Name, fmt.Sprint(it.Bits), yn(it.Arch), yn(it.Saved))
	}
	t.AddRow("TOTAL", fmt.Sprintf("%d (%.1f B)", b.TotalBits(), b.TotalBytes()), "", "")
	t.AddRow("SAVE/RESTORE", fmt.Sprintf("%.1f B", b.SavedBytes()), "", "")
	t.Note("paper: < 1KB per core total, 86.5 B of save/restore state")
	return t
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
