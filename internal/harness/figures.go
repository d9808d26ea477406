package harness

import (
	"fmt"
	"strings"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// fig8Configs are the six machine configurations of Figure 8, in the
// paper's legend order.
func fig8Configs() []NamedConfig {
	return []NamedConfig{
		{Name: "monopath", Cfg: core.ConfigMonopath()},
		{Name: "oracle", Cfg: core.ConfigOracleBP()},
		{Name: "gshare/oracle", Cfg: core.ConfigSEEOracleCE()},
		{Name: "gshare/JRS", Cfg: core.ConfigSEE()},
		{Name: "gshare/oracle/dual", Cfg: core.ConfigDualPathOracleCE()},
		{Name: "gshare/JRS/dual", Cfg: core.ConfigDualPath()},
	}
}

// Table1Row is one row of Table 1.
type Table1Row struct {
	Benchmark       string
	Insts           uint64  // dynamic instructions simulated
	MispredictRate  float64 // under the baseline (scaled) gshare
	PaperMInsts     float64 // the paper's instruction count (millions)
	PaperMispredict float64 // the paper's misprediction rate
}

// Table1Result reproduces Table 1: benchmark characteristics on the
// baseline monopath machine.
type Table1Result struct {
	Rows    []Table1Row
	Average Table1Row
}

// Table1 runs the monopath baseline over the suite and reports each
// benchmark's dynamic instruction count and branch misprediction rate next
// to the paper's Table 1 values.
func Table1(opts Options) (*Table1Result, error) {
	mat, err := runMatrix(opts, []NamedConfig{{Name: "monopath", Cfg: core.ConfigMonopath()}})
	if err != nil {
		return nil, err
	}
	paperByName := make(map[string]workload.Benchmark)
	for _, bm := range workload.Suite(opts.TargetInsts) {
		paperByName[bm.Spec.Name] = bm
	}
	res := &Table1Result{}
	var sumInsts uint64
	var sumRate, sumPaperRate, sumPaperM float64
	for _, b := range mat.Benchmarks {
		c := mat.Cell(b, "monopath")
		pb := paperByName[b]
		row := Table1Row{
			Benchmark:       b,
			Insts:           c.Stats.Committed,
			MispredictRate:  c.Stats.MispredictRate(),
			PaperMInsts:     pb.PaperMInsts,
			PaperMispredict: pb.PaperMispredict,
		}
		res.Rows = append(res.Rows, row)
		sumInsts += row.Insts
		sumRate += row.MispredictRate
		sumPaperRate += row.PaperMispredict
		sumPaperM += row.PaperMInsts
	}
	n := float64(len(res.Rows))
	res.Average = Table1Row{
		Benchmark:       "average",
		Insts:           sumInsts / uint64(len(res.Rows)),
		MispredictRate:  sumRate / n,
		PaperMInsts:     sumPaperM / n,
		PaperMispredict: sumPaperRate / n,
	}
	return res, nil
}

// Render formats Table 1 next to the paper's values.
func (t *Table1Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 1: benchmark characteristics (measured vs paper)\n")
	fmt.Fprintf(&b, "%-10s %14s %12s | %12s %12s\n",
		"benchmark", "instructions", "mispredict", "paper Minsts", "paper mispr")
	for _, r := range append(t.Rows, t.Average) {
		fmt.Fprintf(&b, "%-10s %14d %11.2f%% | %11.1fM %11.2f%%\n",
			r.Benchmark, r.Insts, 100*r.MispredictRate, r.PaperMInsts, 100*r.PaperMispredict)
	}
	return b.String()
}

// Fig8Extra carries the per-benchmark SEE diagnostics the paper discusses
// alongside Figure 8 (Sec. 5.1-5.2).
type Fig8Extra struct {
	Benchmark     string
	PVN           float64 // JRS predictive value of a negative test
	SpeedupJRS    float64 // gshare/JRS over monopath
	SpeedupOrcCE  float64 // gshare/oracle over monopath
	SpeedupOracle float64 // oracle BP over monopath
	AvgPaths      float64 // mean live paths (gshare/JRS)
	PathsLE3      float64 // fraction of cycles with <= 3 paths
	UselessDelta  float64 // relative change in useless instructions vs monopath
	FetchOverhead float64 // monopath fetched/committed (paper: 1.86)
}

// Fig8Result holds the Figure 8 matrix plus its companion diagnostics.
type Fig8Result struct {
	Matrix *Matrix
	Extras []Fig8Extra
}

// Figure8 reproduces the baseline performance comparison of Figure 8: the
// six machine configurations over all benchmarks, with harmonic means, plus
// the PVN / path-utilization / useless-instruction analyses of Sec. 5.1-5.2.
func Figure8(opts Options) (*Fig8Result, error) {
	mat, err := runMatrix(opts, fig8Configs())
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{Matrix: mat}
	for _, b := range mat.Benchmarks {
		mono := mat.Cell(b, "monopath")
		see := mat.Cell(b, "gshare/JRS")
		orc := mat.Cell(b, "gshare/oracle")
		obp := mat.Cell(b, "oracle")
		uselessMono := float64(mono.Stats.UselessInstructions())
		uselessSEE := float64(see.Stats.UselessInstructions())
		delta := 0.0
		if uselessMono > 0 {
			delta = uselessSEE/uselessMono - 1
		}
		res.Extras = append(res.Extras, Fig8Extra{
			Benchmark:     b,
			PVN:           see.Stats.PVN(),
			SpeedupJRS:    see.IPC/mono.IPC - 1,
			SpeedupOrcCE:  orc.IPC/mono.IPC - 1,
			SpeedupOracle: obp.IPC/mono.IPC - 1,
			AvgPaths:      see.Stats.AvgPaths(),
			PathsLE3:      see.Stats.PathsAtMost(3),
			UselessDelta:  delta,
			FetchOverhead: mono.Stats.FetchOverhead(),
		})
	}
	return res, nil
}

// Render formats Figure 8 and its companion analysis.
func (f *Fig8Result) Render() string {
	var b strings.Builder
	b.WriteString(RenderTable("Figure 8: baseline architecture performance (IPC)", f.Matrix))
	b.WriteString("\nSec 5.1/5.2 companion metrics (gshare/JRS vs monopath):\n")
	fmt.Fprintf(&b, "%-10s %8s %9s %9s %9s %9s %8s %9s %9s\n",
		"benchmark", "PVN", "dIPC:JRS", "dIPC:oCE", "dIPC:oBP", "avgpaths", "<=3path", "useless", "fetch/ci")
	for _, e := range f.Extras {
		fmt.Fprintf(&b, "%-10s %7.1f%% %+8.1f%% %+8.1f%% %+8.1f%% %9.2f %7.0f%% %+8.1f%% %9.2f\n",
			e.Benchmark, 100*e.PVN, 100*e.SpeedupJRS, 100*e.SpeedupOrcCE, 100*e.SpeedupOracle,
			e.AvgPaths, 100*e.PathsLE3, 100*e.UselessDelta, e.FetchOverhead)
	}
	m := f.Matrix
	mono := m.HarmonicMean("monopath")
	fmt.Fprintf(&b, "\nharmonic-mean speedups over monopath: oracle %+.1f%%, gshare/oracle %+.1f%%, gshare/JRS %+.1f%%, dual oracle %+.1f%%, dual JRS %+.1f%%\n",
		100*(m.HarmonicMean("oracle")/mono-1),
		100*(m.HarmonicMean("gshare/oracle")/mono-1),
		100*(m.HarmonicMean("gshare/JRS")/mono-1),
		100*(m.HarmonicMean("gshare/oracle/dual")/mono-1),
		100*(m.HarmonicMean("gshare/JRS/dual")/mono-1))
	seeGain := m.HarmonicMean("gshare/JRS") - mono
	dualGain := m.HarmonicMean("gshare/JRS/dual") - mono
	orcGain := m.HarmonicMean("gshare/oracle") - mono
	dualOrcGain := m.HarmonicMean("gshare/oracle/dual") - mono
	if seeGain != 0 && orcGain != 0 {
		fmt.Fprintf(&b, "dual-path fraction of SEE improvement: real %.0f%% (paper 66%%), oracle %.0f%% (paper 58%%)\n",
			100*dualGain/seeGain, 100*dualOrcGain/orcGain)
	}
	return b.String()
}

// SweepPoint is one x-position of a scalability figure: a label, an x
// value, and the harmonic-mean IPC of each configuration. PerBench holds
// the per-benchmark breakdown (config -> benchmark -> IPC) behind the
// means — the paper reads individual benchmarks off these curves (e.g.
// compress and jpeg falling off fastest below 256 window entries).
type SweepPoint struct {
	Label    string
	X        float64
	IPC      map[string]float64            // config name -> harmonic mean IPC
	PerBench map[string]map[string]float64 // config -> benchmark -> IPC
}

// SweepResult is a scalability figure: series of harmonic-mean IPC over a
// machine parameter, for the four standard configurations (monopath,
// oracle, gshare/oracle, gshare/JRS) the paper plots in Figures 9-12.
type SweepResult struct {
	Title   string
	XLabel  string
	Configs []string
	Points  []SweepPoint
}

// Render formats the sweep as aligned series rows followed by an ASCII
// chart of the same data.
func (s *SweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-22s", s.Title, s.XLabel)
	for _, c := range s.Configs {
		fmt.Fprintf(&b, " %14s", c)
	}
	b.WriteByte('\n')
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%-22s", p.Label)
		for _, c := range s.Configs {
			fmt.Fprintf(&b, " %14.3f", p.IPC[c])
		}
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
	b.WriteString(s.Plot(12))
	return b.String()
}

// sweepStep is one x-position of a sweep before it runs: its label, its x
// value and the configurations simulated there.
type sweepStep struct {
	label string
	x     float64
	cells []NamedConfig
}

// sweepConfigs are the four configurations plotted in Figures 9-12, each
// with opt applied.
func sweepConfigs(opt pipeline.Option) []NamedConfig {
	ncs := []NamedConfig{
		{Name: "oracle", Cfg: core.ConfigOracleBP()},
		{Name: "gshare/monopath", Cfg: core.ConfigMonopath()},
		{Name: "gshare/oracle", Cfg: core.ConfigSEEOracleCE()},
		{Name: "gshare/JRS", Cfg: core.ConfigSEE()},
	}
	for i := range ncs {
		opt(&ncs[i].Cfg)
	}
	return ncs
}

// runSweep simulates every step and collects the harmonic-mean IPC (and
// the per-benchmark IPC behind it) of each configuration, in the order
// the steps list them.
func runSweep(opts Options, title, xlabel string, steps []sweepStep) (*SweepResult, error) {
	res := &SweepResult{Title: title, XLabel: xlabel}
	for _, nc := range steps[0].cells {
		res.Configs = append(res.Configs, nc.Name)
	}
	for _, st := range steps {
		mat, err := runMatrix(opts, st.cells)
		if err != nil {
			return nil, err
		}
		sp := SweepPoint{
			Label:    st.label,
			X:        st.x,
			IPC:      make(map[string]float64),
			PerBench: make(map[string]map[string]float64),
		}
		for _, c := range res.Configs {
			sp.IPC[c] = mat.HarmonicMean(c)
			row := make(map[string]float64, len(mat.Benchmarks))
			for _, b := range mat.Benchmarks {
				row[b] = mat.IPC(b, c)
			}
			sp.PerBench[c] = row
		}
		res.Points = append(res.Points, sp)
	}
	return res, nil
}

// Figure9 reproduces the branch-predictor-size scalability study: IPC as a
// function of total predictor state (branch predictor + confidence
// estimator), equal-area comparison. The paper sweeps 10-16 history bits
// around its 14-bit baseline; this reproduction sweeps the same span
// around its scaled 11-bit baseline (see DESIGN.md).
func Figure9(opts Options) (*SweepResult, error) {
	var steps []sweepStep
	for _, bits := range []int{8, 9, 10, 11, 12, 13, 14} {
		pred := 1 << uint(bits) / 4 // 2-bit counters
		conf := 1 << uint(bits) / 8 // 1-bit counters
		steps = append(steps, sweepStep{
			label: fmt.Sprintf("%d bits (%d B)", bits, pred+conf),
			x:     float64(pred + conf),
			cells: sweepConfigs(pipeline.WithHistoryBits(bits)),
		})
	}
	return runSweep(opts, "Figure 9: branch predictor size (harmonic mean IPC)", "predictor state", steps)
}

// Figure9TAGE is the equal-area companion to Figure 9: at every storage
// budget of the Figure 9 sweep (8-14 budget bits), it compares gshare
// against a TAGE predictor sized by bpred.TageIsoParams to occupy exactly
// the same number of bytes (asserted by the bpred iso-storage tests), under
// both the monopath baseline and the SEE machine with the JRS estimator.
// The x axis is total predictor + confidence state, as in Figure 9.
func Figure9TAGE(opts Options) (*SweepResult, error) {
	var steps []sweepStep
	for _, bits := range []int{8, 9, 10, 11, 12, 13, 14} {
		predBytes, err := bpred.StateBytes("gshare", bpred.Params{"hist_bits": bits})
		if err != nil {
			return nil, err
		}
		confBytes := 1 << uint(bits) / 8 // 1-bit JRS counters
		tageParams := map[string]int(bpred.TageIsoParams(bits))
		gshare := pipeline.WithHistoryBits(bits)
		tage := func(c *core.Config) {
			c.Predictor = pipeline.PredictorSpec{Kind: pipeline.PredTage, Params: tageParams}
			c.Confidence.IndexBits = bits
		}
		mono, see := core.ConfigMonopath(), core.ConfigSEE()
		cells := []NamedConfig{
			{Name: "gshare/monopath", Cfg: mono},
			{Name: "tage/monopath", Cfg: mono},
			{Name: "gshare/JRS", Cfg: see},
			{Name: "tage/JRS", Cfg: see},
		}
		gshare(&cells[0].Cfg)
		tage(&cells[1].Cfg)
		gshare(&cells[2].Cfg)
		tage(&cells[3].Cfg)
		steps = append(steps, sweepStep{
			label: fmt.Sprintf("%d bits (%d B)", bits, predBytes+confBytes),
			x:     float64(predBytes + confBytes),
			cells: cells,
		})
	}
	return runSweep(opts, "Figure 9-TAGE: equal-area predictor comparison (harmonic mean IPC)", "predictor state", steps)
}

// Figure10 reproduces the instruction-window-size study (64-1024 entries).
func Figure10(opts Options) (*SweepResult, error) {
	var steps []sweepStep
	for _, w := range []int{64, 128, 256, 512, 1024} {
		steps = append(steps, sweepStep{label: fmt.Sprintf("%d entries", w), x: float64(w), cells: sweepConfigs(pipeline.WithWindowSize(w))})
	}
	return runSweep(opts, "Figure 10: instruction window size (harmonic mean IPC)", "window entries", steps)
}

// Figure11 reproduces the functional-unit-configuration study: 1-4 units
// of each type (and memory ports), scaled uniformly as in the paper.
func Figure11(opts Options) (*SweepResult, error) {
	var steps []sweepStep
	for _, n := range []int{1, 2, 3, 4} {
		steps = append(steps, sweepStep{label: fmt.Sprintf("%d of each", n), x: float64(n), cells: sweepConfigs(pipeline.WithUniformUnits(n))})
	}
	return runSweep(opts, "Figure 11: functional unit configuration (harmonic mean IPC)", "units per type", steps)
}

// Figure12 reproduces the pipeline-depth study: total depths 6-10, varied
// through the in-order front end as in the paper.
func Figure12(opts Options) (*SweepResult, error) {
	var steps []sweepStep
	for _, depth := range []int{6, 7, 8, 9, 10} {
		steps = append(steps, sweepStep{label: fmt.Sprintf("%d stages", depth), x: float64(depth), cells: sweepConfigs(pipeline.WithPipelineDepth(depth))})
	}
	return runSweep(opts, "Figure 12: pipeline depth (harmonic mean IPC)", "pipeline stages", steps)
}

// PathHistogram reports the live-path-count distribution for the SEE
// machine (Sec. 5.2's path-utilization analysis: "the average number of
// active paths is only 2.9; SEE uses 3 paths or fewer approximately 75% of
// the time").
type PathHistogram struct {
	Benchmark string
	AvgPaths  float64
	AtMost    map[int]float64 // n -> fraction of cycles with <= n paths
}

// PathUtilization measures path-count statistics under gshare/JRS SEE.
func PathUtilization(opts Options) ([]PathHistogram, error) {
	mat, err := runMatrix(opts, []NamedConfig{{Name: "gshare/JRS", Cfg: core.ConfigSEE()}})
	if err != nil {
		return nil, err
	}
	var out []PathHistogram
	for _, b := range mat.Benchmarks {
		c := mat.Cell(b, "gshare/JRS")
		h := PathHistogram{Benchmark: b, AvgPaths: c.Stats.AvgPaths(), AtMost: make(map[int]float64)}
		for _, n := range []int{1, 2, 3, 4, 5, 8} {
			h.AtMost[n] = c.Stats.PathsAtMost(n)
		}
		out = append(out, h)
	}
	return out, nil
}

// PathReport wraps PathUtilization in a renderable result.
type PathReport struct {
	Histograms []PathHistogram
	Average    float64
}

// Paths runs the path-utilization study of Sec. 5.2.
func Paths(opts Options) (*PathReport, error) {
	hists, err := PathUtilization(opts)
	if err != nil {
		return nil, err
	}
	var sum float64
	for _, h := range hists {
		sum += h.AvgPaths
	}
	return &PathReport{Histograms: hists, Average: sum / float64(len(hists))}, nil
}

// Render formats the path-utilization report.
func (r *PathReport) Render() string {
	var b strings.Builder
	b.WriteString("Path utilization under gshare/JRS (Sec. 5.2)\n")
	fmt.Fprintf(&b, "%-10s %9s %7s %7s %7s %7s\n", "benchmark", "avgpaths", "<=1", "<=2", "<=3", "<=5")
	for _, h := range r.Histograms {
		fmt.Fprintf(&b, "%-10s %9.2f %6.0f%% %6.0f%% %6.0f%% %6.0f%%\n",
			h.Benchmark, h.AvgPaths, 100*h.AtMost[1], 100*h.AtMost[2], 100*h.AtMost[3], 100*h.AtMost[5])
	}
	fmt.Fprintf(&b, "%-10s %9.2f   (paper: 2.9 average, <=3 paths ~75%% of cycles)\n", "average", r.Average)
	return b.String()
}
