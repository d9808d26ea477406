// Package repro's root benchmarks regenerate each of the paper's tables
// and figures through the experiment harness (scaled down so a bench run
// completes in minutes), and microbenchmark the simulator's core
// structures. The full-scale regeneration lives in cmd/experiments.
//
//	go test -bench=. -benchmem .
package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bpred"
	cachepkg "repro/internal/cache"
	"repro/internal/confidence"
	"repro/internal/core"
	"repro/internal/ctxtag"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/rename"
	"repro/internal/workload"
)

// benchOpts keeps figure regeneration benches fast: two contrasting
// benchmarks (worst and best predictability), short runs.
func benchOpts() harness.Options {
	return harness.Options{TargetInsts: 50_000, Benchmarks: []string{"go", "vortex"}}
}

// BenchmarkTable1 regenerates Table 1 (benchmark characteristics).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Table1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Average.MispredictRate, "avg-mispredict-%")
	}
}

// BenchmarkFigure8 regenerates the Figure 8 baseline comparison.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Figure8(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		m := res.Matrix
		b.ReportMetric(m.HarmonicMean("gshare/JRS")/m.HarmonicMean("monopath"), "see-speedup-x")
	}
}

// BenchmarkFigure9 regenerates the predictor-size sweep (reduced to three
// sizes for bench time; cmd/experiments runs the full sweep).
func BenchmarkFigure9(b *testing.B) {
	benchSweep(b, func(o harness.Options) (*harness.SweepResult, error) { return harness.Figure9(o) })
}

// BenchmarkFigure10 regenerates the window-size sweep.
func BenchmarkFigure10(b *testing.B) {
	benchSweep(b, func(o harness.Options) (*harness.SweepResult, error) { return harness.Figure10(o) })
}

// BenchmarkFigure11 regenerates the functional-unit sweep.
func BenchmarkFigure11(b *testing.B) {
	benchSweep(b, func(o harness.Options) (*harness.SweepResult, error) { return harness.Figure11(o) })
}

// BenchmarkFigure12 regenerates the pipeline-depth sweep.
func BenchmarkFigure12(b *testing.B) {
	benchSweep(b, func(o harness.Options) (*harness.SweepResult, error) { return harness.Figure12(o) })
}

func benchSweep(b *testing.B, f func(harness.Options) (*harness.SweepResult, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := f(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkSimulatorMonopath measures raw simulation throughput
// (simulated instructions per wall-clock second) for the baseline.
func BenchmarkSimulatorMonopath(b *testing.B) {
	benchSimulator(b, core.ConfigMonopath())
}

// BenchmarkSimulatorSEE measures simulation throughput with selective
// eager execution enabled (multi-path overheads included).
func BenchmarkSimulatorSEE(b *testing.B) {
	benchSimulator(b, core.ConfigSEE())
}

func benchSimulator(b *testing.B, cfg core.Config) {
	b.Helper()
	bm, err := workload.ByName("gcc", 100_000)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := workload.Generate(bm.Spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var committed uint64
	for i := 0; i < b.N; i++ {
		res, err := core.RunCell(context.Background(), prog, cfg, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		committed += res.Stats.Committed
	}
	b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "sim-insts/s")
}

// BenchmarkCycleLoop measures the steady-state cost of one simulated cycle
// (commit/writeback/issue/rename/fetch) on the SEE machine: ns per cycle
// and, with -benchmem, allocations per cycle — the number the hot-path
// optimization pass drives toward zero.
func BenchmarkCycleLoop(b *testing.B) {
	bm, err := workload.ByName("gcc", 100_000)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := workload.Generate(bm.Spec)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.ConfigSEE()
	m, err := pipeline.New(prog, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Halted() {
			b.StopTimer()
			if m, err = pipeline.New(prog, cfg); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		m.Step()
	}
}

// BenchmarkTracerOff is BenchmarkCycleLoop with tracing explicitly
// detached: the number that must stay within noise of BenchmarkCycleLoop,
// since a disabled tracer costs exactly one nil check per event site.
func BenchmarkTracerOff(b *testing.B) {
	benchCycleLoopTracer(b, nil)
}

// BenchmarkTracerOn measures the same cycle loop with an obs.Ring
// attached, bounding what a traced run pays per cycle (event construction
// plus one atomic fetch-add and a slot store per pipeline event).
func BenchmarkTracerOn(b *testing.B) {
	benchCycleLoopTracer(b, obs.NewRing(1<<16))
}

func benchCycleLoopTracer(b *testing.B, tr pipeline.Tracer) {
	b.Helper()
	bm, err := workload.ByName("gcc", 100_000)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := workload.Generate(bm.Spec)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.ConfigSEE()
	mk := func() *pipeline.Machine {
		m, err := pipeline.New(prog, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if tr != nil {
			m.SetTracer(tr)
		}
		return m
	}
	m := mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Halted() {
			b.StopTimer()
			m = mk()
			b.StartTimer()
		}
		m.Step()
	}
}

// BenchmarkRenamer measures the rename-stage data structures together: map
// update, free-list allocate/free, and the per-branch checkpoint
// take/restore/release cycle.
func BenchmarkRenamer(b *testing.B) {
	fl := rename.NewFreeList(352, isa.NumRegs)
	ck := rename.NewCheckpoints(64)
	mp := rename.NewIdentityMap()
	for i := 0; i < b.N; i++ {
		p, ok := fl.Alloc()
		if !ok {
			b.Fatal("free list exhausted")
		}
		old := mp.Set(isa.Reg(i&31), p)
		if i&7 == 0 {
			id, ok := ck.Take(mp, uint64(i))
			if ok {
				ck.Restore(id, mp)
				ck.Release(id)
			}
		}
		fl.Free(old)
	}
}

// BenchmarkHarnessSweep runs the full Figure 8 configuration sweep (six
// machine configurations) end to end and reports aggregate simulated
// instructions per wall-clock second — the throughput number that bounds
// every experiment in EXPERIMENTS.md. cmd/benchreport records this metric
// in the BENCH_<date>.json snapshots.
func BenchmarkHarnessSweep(b *testing.B) {
	var committed uint64
	for i := 0; i < b.N; i++ {
		res, err := harness.Figure8(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		m := res.Matrix
		for _, bench := range m.Benchmarks {
			for _, cfg := range m.Configs {
				if c := m.Cell(bench, cfg); c != nil {
					committed += c.Stats.Committed
				}
			}
		}
	}
	b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "sim-insts/s")
}

// BenchmarkHarnessParallel measures the internal/sched sharded
// experiment engine at fixed worker counts over one representative
// RunConfigs sweep (2 benchmarks x 3 configurations). The j1/j2/j4/j8
// sub-benchmarks quantify the parallel speedup on the snapshot machine
// (benchreport turns them into the Scaling section and CI gates the
// j4/j1 ratio on multi-core runners); the rendered results are
// byte-identical at every width, so only wall time may differ. Note that
// on a single-core machine (GOMAXPROCS=1) j2/j4/j8 cannot beat j1 — the
// committed BENCH snapshot records whatever the hardware honestly
// delivers.
func BenchmarkHarnessParallel(b *testing.B) {
	configs := []harness.NamedConfig{
		{Name: "monopath", Cfg: core.ConfigMonopath()},
		{Name: "see", Cfg: core.ConfigSEE()},
		{Name: "dualpath", Cfg: core.ConfigDualPath()},
	}
	for _, j := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("j%d", j), func(b *testing.B) {
			var committed uint64
			for i := 0; i < b.N; i++ {
				opts := benchOpts()
				opts.Parallelism = j
				m, err := harness.RunConfigs(opts, configs)
				if err != nil {
					b.Fatal(err)
				}
				for _, bench := range m.Benchmarks {
					for _, cfg := range m.Configs {
						if c := m.Cell(bench, cfg); c != nil {
							committed += c.Stats.Committed
						}
					}
				}
			}
			b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "sim-insts/s")
		})
	}
}

// BenchmarkCtxTagComparator measures the hierarchy comparator of Fig. 5.
func BenchmarkCtxTagComparator(b *testing.B) {
	anc := ctxtag.Root().WithPosition(0, true).WithPosition(3, false)
	desc := anc.WithPosition(5, true).WithPosition(7, false)
	sink := false
	for i := 0; i < b.N; i++ {
		sink = anc.IsAncestorOrSelf(desc)
	}
	_ = sink
}

// BenchmarkGsharePredict measures the branch predictor path.
func BenchmarkGsharePredict(b *testing.B) {
	g := bpred.NewGshare(14)
	hist := uint64(0)
	for i := 0; i < b.N; i++ {
		t := g.Predict(i&4095, hist)
		g.Update(i&4095, hist, t)
		hist = bpred.PushHistory(hist, t)
	}
}

// BenchmarkJRSEstimate measures the confidence estimator path.
func BenchmarkJRSEstimate(b *testing.B) {
	j := confidence.NewJRS(confidence.JRSConfig{IndexBits: 14, CtrBits: 1, EnhancedIndex: true})
	hist := uint64(0)
	for i := 0; i < b.N; i++ {
		hc := j.Estimate(i&4095, hist, i&1 == 0, confidence.Hint{})
		j.Update(i&4095, hist, i&1 == 0, hc)
		hist = hist<<1 | uint64(i&1)
	}
}

// BenchmarkInterp measures the functional interpreter (the architectural
// oracle every simulation is verified against).
func BenchmarkInterp(b *testing.B) {
	bm, err := workload.ByName("compress", 100_000)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := workload.Generate(bm.Spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var n uint64
	for i := 0; i < b.N; i++ {
		it := isa.NewInterp(prog)
		if err := it.Run(1 << 30); err != nil {
			b.Fatal(err)
		}
		n += it.InstCount
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "interp-insts/s")
}

// BenchmarkWorkloadGenerate measures benchmark program generation.
func BenchmarkWorkloadGenerate(b *testing.B) {
	bm, err := workload.ByName("gcc", 200_000)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := workload.Generate(bm.Spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheAccess measures the set-associative cache directory.
func BenchmarkCacheAccess(b *testing.B) {
	c := cachepkg.New(cachepkg.Config{Sets: 64, Ways: 2, LineWords: 8})
	for i := 0; i < b.N; i++ {
		c.Access(i & 4095)
	}
}

// BenchmarkRAS measures return-address stack push/pop plus the per-branch
// snapshot copy the pipeline takes.
func BenchmarkRAS(b *testing.B) {
	r := bpred.NewRAS(16)
	s := bpred.NewRAS(16)
	for i := 0; i < b.N; i++ {
		r.Push(i)
		if i%3 == 0 {
			r.Pop()
		}
		if i%7 == 0 {
			s.CopyFrom(r)
			r.CopyFrom(s)
		}
	}
}

// BenchmarkBTBPredict measures the branch target buffer.
func BenchmarkBTBPredict(b *testing.B) {
	btb := bpred.NewBTB(9)
	for i := 0; i < b.N; i++ {
		pc := i & 1023
		if t, ok := btb.Predict(pc); !ok || t != pc+1 {
			btb.Update(pc, pc+1)
		}
	}
}

// BenchmarkAssemble measures the textual assembler on a ~40-line program.
func BenchmarkAssemble(b *testing.B) {
	src := `
.name bench
.data 1 2 3 4
start:
    li   r1, 100
loop:
    load r2, 0(r1)
    add  r3, r3, r2
    addi r1, r1, -1
    bne  r1, r0, loop
    call r28, fn
    halt
fn:
    addi r3, r3, 1
    ret  (r28)
`
	for i := 0; i < b.N; i++ {
		if _, err := isa.Assemble(src); err != nil {
			b.Fatal(err)
		}
	}
}
