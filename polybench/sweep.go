package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/workload"
)

// fig8Title is the title line of the committed Figure 8 table.
const fig8Title = "Figure 8: baseline architecture performance (IPC)"

// fig8Models maps Figure 8's legend labels to the model names of
// core.ModelConfig, which build the same configurations.
var fig8Models = []struct{ label, model string }{
	{"monopath", "monopath"},
	{"oracle", "oracle"},
	{"gshare/oracle", "see-oracle-ce"},
	{"gshare/JRS", "see"},
	{"gshare/oracle/dual", "dual-oracle-ce"},
	{"gshare/JRS/dual", "dualpath"},
}

// sweep is one harness sweep workload: a fixed pass repeated for the
// measured phase.
type sweep struct {
	name       string
	insts      uint64
	labels     []string // matrix column names
	models     []string // core model name of each column
	replicates int
	fig8       bool   // run harness.Figure8 (labels/models are fig8Models)
	warmInsts  uint64 // instructions per cell of a set-up pass
}

var fig8Long = sweep{name: "fig8-long", insts: 400_000, warmInsts: 40_000, fig8: true, replicates: 1}

// cellsShort runs many distinct short programs: per-cell fixed costs
// (generation, reference interpretation, machine build, verify) dominate.
var cellsShort = sweep{
	name:       "cells-short",
	insts:      1000,
	warmInsts:  1000,
	labels:     []string{"monopath", "see", "tage", "adaptive"},
	models:     []string{"monopath", "see", "tage", "adaptive"},
	replicates: 6,
}

func init() {
	for _, m := range fig8Models {
		fig8Long.labels = append(fig8Long.labels, m.label)
		fig8Long.models = append(fig8Long.models, m.model)
	}
}

func runFig8Long(e *env, rec *recorder) (*report, error)   { return fig8Long.run(e, rec) }
func runCellsShort(e *env, rec *recorder) (*report, error) { return cellsShort.run(e, rec) }

// seededSuite returns the Table 1 stand-ins at insts instructions with
// their generator seeds shifted by the benchmark seed; at defaultSeed the
// programs are exactly the committed suite.
func seededSuite(insts uint64, seed int64) ([]workload.Benchmark, []string) {
	bms := workload.Suite(insts)
	names := make([]string, len(bms))
	for i := range bms {
		bms[i].Spec.Seed += (seed - defaultSeed) * 7919
		names[i] = bms[i].Spec.Name
	}
	return bms, names
}

// cellObs is one finished harness cell, seen through Options.OnCell.
type cellObs struct {
	id         string
	ipc        float64
	committed  uint64
	start, end time.Time
}

// passOut is one measured sweep pass.
type passOut struct {
	start     time.Time
	wall      time.Duration
	table     string
	cells     []cellObs
	allocMB   float64
	committed uint64
	obs       *shardObserver
}

// shardObserver records scheduler task lifecycles (traced runs only).
type shardObserver struct {
	mu   sync.Mutex
	busy time.Duration
	last map[int]time.Time // last TaskDone per shard
}

func (o *shardObserver) TaskStarted(shard int, id string) {}

func (o *shardObserver) TaskDone(shard int, id string, elapsed time.Duration, err error) {
	o.mu.Lock()
	o.busy += elapsed
	o.last[shard] = time.Now()
	o.mu.Unlock()
}

// tailIdle is the time from the first shard going idle to the last shard
// finishing.
func (o *shardObserver) tailIdle() time.Duration {
	var lo, hi time.Time
	for _, t := range o.last {
		if lo.IsZero() || t.Before(lo) {
			lo = t
		}
		if t.After(hi) {
			hi = t
		}
	}
	return hi.Sub(lo)
}

func (s sweep) configs() ([]harness.NamedConfig, error) {
	out := make([]harness.NamedConfig, len(s.models))
	for i, m := range s.models {
		cfg, err := core.ModelConfig(m)
		if err != nil {
			return nil, err
		}
		out[i] = harness.NamedConfig{Name: s.labels[i], Cfg: cfg}
	}
	return out, nil
}

// pass runs the sweep once at insts instructions.
func (s sweep) pass(seed int64, insts uint64, rec *recorder, group string) (*passOut, error) {
	bms, names := seededSuite(insts, seed)
	out := &passOut{}
	var mu sync.Mutex
	opts := harness.Options{
		TargetInsts: insts,
		Parallelism: runtime.NumCPU(),
		Benchmarks:  names,
		Extra:       bms,
		Replicates:  s.replicates,
		OnCell: func(ev harness.CellEvent) {
			end := time.Now()
			mu.Lock()
			out.cells = append(out.cells, cellObs{
				id: harness.CellID(ev.Benchmark, ev.Config, ev.Replicate), ipc: ev.IPC,
				committed: ev.Committed, start: end.Add(-ev.Elapsed), end: end,
			})
			mu.Unlock()
		},
	}
	if rec != nil {
		out.obs = &shardObserver{last: map[int]time.Time{}}
		opts.Observer = out.obs
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var mat *harness.Matrix
	if s.fig8 {
		res, err := harness.Figure8(opts)
		if err != nil {
			return nil, err
		}
		mat = res.Matrix
	} else {
		cfgs, err := s.configs()
		if err != nil {
			return nil, err
		}
		if mat, err = harness.RunConfigs(opts, cfgs); err != nil {
			return nil, err
		}
	}
	end := time.Now()
	out.start, out.wall = start, end.Sub(start)
	runtime.ReadMemStats(&ms1)
	out.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	title := fig8Title
	if !s.fig8 {
		title = s.name + " (IPC)"
	}
	out.table = harness.RenderTable(title, mat)
	for _, c := range out.cells {
		out.committed += c.committed
	}
	if rec != nil {
		pid := rec.add(0, group, "harness.pass", start, end)
		for _, c := range out.cells {
			rec.add(pid, c.id, "core.cell", c.start, c.end)
		}
	}
	return out, nil
}

// warmup is the sweeps' set-up: a pass over the same matrix that faults
// in code and grows the heap before anything is timed. fig8-long warms up
// at a tenth of its measured length; cells-short, whose passes are short,
// at its full length.
func (s sweep) warmup(seed int64) (time.Duration, error) {
	start := time.Now()
	_, err := s.pass(seed, s.warmInsts, nil, "warmup")
	return time.Since(start), err
}

func (s sweep) run(e *env, rec *recorder) (*report, error) {
	rep := newReport()
	var setups []time.Duration
	for i := 0; i < e.setups; i++ {
		d, err := s.warmup(e.seed)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, d)
	}
	expectCells := 8 * len(s.models) * max(1, s.replicates)
	var passes []*passOut
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for len(passes) == 0 || time.Now().Before(deadline) {
		rep.attempted += expectCells
		p, err := s.pass(e.seed, s.insts, rec, fmt.Sprintf("pass-%d", len(passes)))
		if err != nil {
			rep.fail(expectCells, "pass %d: %v", len(passes), err)
			break
		}
		if len(p.cells) != expectCells {
			rep.fail(expectCells-len(p.cells), "pass %d: %d cells completed, want %d", len(passes), len(p.cells), expectCells)
		}
		if len(passes) > 0 && p.table != passes[0].table {
			rep.fail(1, "pass %d: rendered table differs from pass 0 (nondeterminism)", len(passes))
		}
		passes = append(passes, p)
	}
	if len(passes) == 0 {
		return rep, nil
	}
	if s.fig8 && e.seed == defaultSeed {
		want, err := goldenFig8(e.golden)
		if err != nil {
			return nil, err
		}
		if passes[0].table != want {
			rep.fail(1, "fig8-long: Figure 8 table differs from %s:\n--- got ---\n%s--- want ---\n%s", e.golden, passes[0].table, want)
		} else {
			rep.note("Figure 8 table byte-identical to %s", e.golden)
		}
	}

	var minsts, cellsPS, alloc, passMS, ipcs, rss []float64
	for _, p := range passes {
		rss = append(rss, e.rss.peak(p.start, p.start.Add(p.wall)))
		w := p.wall.Seconds()
		minsts = append(minsts, float64(p.committed)/1e6/w)
		cellsPS = append(cellsPS, float64(len(p.cells))/w)
		alloc = append(alloc, p.allocMB)
		passMS = append(passMS, float64(p.wall)/1e6)
	}
	for _, c := range passes[0].cells {
		ipcs = append(ipcs, c.ipc)
	}
	rep.e2e["sim_minsts_per_s"] = metric{median(minsts), "Minst/s"}
	rep.e2e["cells_per_s"] = metric{median(cellsPS), "cells/s"}
	rep.e2e["heap_alloc_mb"] = metric{median(alloc), "MB"}
	rep.e2e["ipc_hmean"] = metric{hmean(ipcs), "IPC"}
	rep.note("%d passes of %d cells at %d insts; throughput and heap are medians over passes; ipc_hmean over %d cells",
		len(passes), expectCells, s.insts, len(ipcs))
	// A sweep's user waits for the whole pass, as for one experiment
	// invocation. Single cells' latency is core.run_cell_ms of the traced
	// run: it moved with the host's speed up to twice as much as the pass.
	latencyMetrics(rep, "sweep pass (one harness call)", passMS)
	if rec != nil {
		if err := s.layers(e, rec, rep, passes); err != nil {
			return nil, err
		}
	}
	return rep, finishE2E(rep, setups, rss)
}

// goldenFig8 extracts the Figure 8 IPC table (title through the hmean
// row) from the committed experiment output.
func goldenFig8(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("golden Figure 8: %w", err)
	}
	defer f.Close()
	var b strings.Builder
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == fig8Title {
			in = true
		}
		if in {
			b.WriteString(line + "\n")
			if strings.HasPrefix(line, "hmean") {
				return b.String(), nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("golden Figure 8: no table in %s", path)
}

// refCap is the reference-run instruction cap pipeline.NewWithArena uses
// for configurations without MaxInsts; warming isa.TraceCached with it
// makes the following builds hit the reference cache.
const refCap = 1 << 26

// replaySpec is one program and the configurations replayed on it.
type replaySpec struct {
	spec   workload.Spec
	rep    int // replicate index, for cell ids
	cfgs   []harness.NamedConfig
	models []string // core model name of each configuration
}

// decompCell is one cell replayed layer by layer.
type decompCell struct {
	id, model, bench   string
	rep                int
	build, run, verify time.Duration
	mallocs            uint64
	st                 stats.Sim
}

// decomposition is the outcome of a replay.
type decomposition struct {
	cells    []decompCell
	gen, ref []time.Duration // per program
	refInsts uint64
}

// replay runs every cell through the public layer sequence Generate ->
// TraceCached -> NewWithArena -> RunContext -> VerifyArchState -> Recycle,
// one call at a time on one goroutine with one reused arena, recording a
// span per call.
func replay(rec *recorder, specs []replaySpec) (*decomposition, error) {
	d := &decomposition{}
	arena := pipeline.NewArena()
	ctx := context.Background()
	var ms runtime.MemStats
	for _, rs := range specs {
		group := harness.CellID(rs.spec.Name, "program", rs.rep)
		t0 := time.Now()
		prog, err := workload.Generate(rs.spec)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		_, interp, err := isa.TraceCached(prog, refCap)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		d.gen = append(d.gen, t1.Sub(t0))
		d.ref = append(d.ref, t2.Sub(t1))
		d.refInsts += interp.InstCount
		var stamps [][5]time.Time
		for i, nc := range rs.cfgs {
			id := harness.CellID(rs.spec.Name, nc.Name, rs.rep)
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			var ts [5]time.Time
			ts[0] = time.Now()
			m, err := pipeline.NewWithArena(prog, nc.Cfg, arena)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", id, err)
			}
			ts[1] = time.Now()
			if err := m.RunContext(ctx); err != nil {
				return nil, fmt.Errorf("%s: %w", id, err)
			}
			ts[2] = time.Now()
			if err := m.VerifyArchState(); err != nil {
				return nil, fmt.Errorf("%s: %w", id, err)
			}
			ts[3] = time.Now()
			st := m.Stats
			m.Recycle(arena)
			ts[4] = time.Now()
			runtime.ReadMemStats(&ms)
			d.cells = append(d.cells, decompCell{
				id: id, model: rs.models[i], bench: rs.spec.Name, rep: rs.rep,
				build: ts[1].Sub(ts[0]), run: ts[2].Sub(ts[1]), verify: ts[3].Sub(ts[2]),
				mallocs: ms.Mallocs - before, st: st,
			})
			stamps = append(stamps, ts)
		}
		pid := rec.add(0, group, "replay.program", t0, time.Now())
		rec.add(pid, group, "workload.generate", t0, t1)
		rec.add(pid, group, "isa.ref_interp", t1, t2)
		for _, c := range d.cells[len(d.cells)-len(stamps):] {
			ts := stamps[0]
			stamps = stamps[1:]
			cid := rec.add(pid, c.id, "replay.cell", ts[0], ts[4])
			for k, name := range []string{"pipeline.build", "pipeline.run", "pipeline.verify", "pipeline.recycle"} {
				rec.add(cid, c.id, name, ts[k], ts[k+1])
			}
		}
	}
	return d, nil
}

// replaySpecs lists the sweep's cells program by program.
func (s sweep) replaySpecs(seed int64) ([]replaySpec, error) {
	bms, _ := seededSuite(s.insts, seed)
	cfgs, err := s.configs()
	if err != nil {
		return nil, err
	}
	var out []replaySpec
	for _, bm := range bms {
		for r := 0; r < max(1, s.replicates); r++ {
			spec := bm.Spec
			spec.Seed += int64(1000 * r) // the harness's replicate seeding
			out = append(out, replaySpec{spec: spec, rep: r, cfgs: cfgs, models: s.models})
		}
	}
	return out, nil
}

// replayMetrics sets the workload, isa, pipeline and modelled-machine
// metrics from a replay.
func replayMetrics(rep *report, d *decomposition) {
	var (
		buildUS, verifyUS  []float64
		runNS              time.Duration
		mallocs            uint64
		sum                stats.Sim
		pathCycles         float64
		byModel            = map[string][2]float64{} // run ns, cycles
		predMiss, predCond uint64
	)
	for _, c := range d.cells {
		buildUS = append(buildUS, float64(c.build)/1e3)
		verifyUS = append(verifyUS, float64(c.verify)/1e3)
		runNS += c.run
		mallocs += c.mallocs
		bm := byModel[c.model]
		bm[0] += float64(c.run)
		bm[1] += float64(c.st.Cycles)
		byModel[c.model] = bm
		sum.Cycles += c.st.Cycles
		sum.Committed += c.st.Committed
		sum.Fetched += c.st.Fetched
		sum.Killed += c.st.Killed
		sum.Divergences += c.st.Divergences
		sum.LowConf += c.st.LowConf
		sum.LowConfMispred += c.st.LowConfMispred
		pathCycles += c.st.AvgPaths() * float64(c.st.Cycles)
		if c.model != "oracle" {
			predMiss += c.st.Mispredicts
			predCond += c.st.CondBranches
		}
	}
	genMS := make([]float64, len(d.gen))
	var refTotal time.Duration
	for i, g := range d.gen {
		genMS[i] = float64(g) / 1e6
		refTotal += d.ref[i]
	}
	l := rep.layer
	l["workload.generate_ms"] = metric{median(genMS), "ms"}
	l["isa.ref_interp_ns_per_inst"] = metric{float64(refTotal) / float64(d.refInsts), "ns/inst"}
	l["pipeline.build_us"] = metric{median(buildUS), "us"}
	l["pipeline.verify_us"] = metric{median(verifyUS), "us"}
	l["pipeline.allocs_per_cell"] = metric{float64(mallocs) / float64(len(d.cells)), "allocs"}
	l["pipeline.cycle_ns"] = metric{float64(runNS) / float64(sum.Cycles), "ns/cycle"}
	l["pipeline.ns_per_inst"] = metric{float64(runNS) / float64(sum.Committed), "ns/inst"}
	for model, v := range byModel {
		l["pipeline.cycle_ns."+model] = metric{v[0] / v[1], "ns/cycle"}
	}
	l["bpred.mispredict_err_pp"] = metric{mispredictErrPP(d.cells), "pp"}
	rep.note("replay: %d programs generated, %d cells replayed one call at a time; %d reference instructions interpreted",
		len(d.gen), len(d.cells), d.refInsts)
	modelledMetrics(rep, sum, pathCycles, predMiss, predCond)
}

// layers fills the per-layer metrics of a traced sweep run.
func (s sweep) layers(e *env, rec *recorder, rep *report, passes []*passOut) error {
	specs, err := s.replaySpecs(e.seed)
	if err != nil {
		return err
	}
	d, err := replay(rec, specs)
	if err != nil {
		rep.fail(1, "replay pass: %v", err)
		return nil
	}
	replayMetrics(rep, d)
	// The replayed cells must reproduce the harness's IPC exactly, and
	// the harness's cell time is compared with the replayed layers'.
	harnessIPC := map[string]float64{}
	var harnessCell, attributed time.Duration
	for _, c := range passes[0].cells {
		harnessIPC[c.id] = c.ipc
		harnessCell += c.end.Sub(c.start)
	}
	for _, g := range d.ref {
		attributed += g
	}
	for _, c := range d.cells {
		if want, ok := harnessIPC[c.id]; !ok || want != c.st.IPC() {
			rep.fail(1, "replayed cell %s: IPC %v, harness %v", c.id, c.st.IPC(), want)
		}
		attributed += c.build + c.run + c.verify
	}
	var cellMS, busy, util, tailIdle []float64
	for _, p := range passes {
		for _, c := range p.cells {
			cellMS = append(cellMS, float64(c.end.Sub(c.start))/1e6)
		}
		busy = append(busy, p.obs.busy.Seconds())
		util = append(util, p.obs.busy.Seconds()/(p.wall.Seconds()*float64(runtime.NumCPU())))
		tailIdle = append(tailIdle, p.obs.tailIdle().Seconds())
	}
	l := rep.layer
	l["core.run_cell_ms.p50"] = metric{median(cellMS), "ms"}
	l["core.run_cell_ms.max"] = metric{maxOf(cellMS), "ms"}
	l["core.unattributed_frac"] = metric{1 - float64(attributed)/float64(harnessCell), "ratio"}
	l["harness.cell_busy_s"] = metric{median(busy), "s"}
	l["sched.utilization"] = metric{median(util), "ratio"}
	l["sched.tail_idle_s"] = metric{median(tailIdle), "s"}
	rep.note("core.unattributed_frac base: harness cell time %.3fs (pass 0, %d shards in parallel) vs replayed ref+build+run+verify %.3fs (one at a time)",
		harnessCell.Seconds(), runtime.NumCPU(), attributed.Seconds())
	return nil
}

// modelledMetrics sets the simulated-machine ratios, each noted with its
// base. They are exact counts: any change means the model changed.
func modelledMetrics(rep *report, sum stats.Sim, pathCycles float64, predMiss, predCond uint64) {
	l := rep.layer
	l["pipeline.fetch_per_commit"] = metric{float64(sum.Fetched) / float64(sum.Committed), "ratio"}
	l["pipeline.killed_frac"] = metric{float64(sum.Killed) / float64(sum.Fetched), "ratio"}
	l["pipeline.avg_paths"] = metric{pathCycles / float64(sum.Cycles), "paths"}
	l["pipeline.divergences_per_kinst"] = metric{1000 * float64(sum.Divergences) / float64(sum.Committed), "1/kinst"}
	l["bpred.mispredict_rate"] = metric{ratio(predMiss, predCond), "ratio"}
	l["confidence.pvn"] = metric{ratio(sum.LowConfMispred, sum.LowConf), "ratio"}
	rep.note("modelled bases: fetched %d, committed %d, killed %d, cycles %d, divergences %d, mispredicts %d of %d conditional branches (oracle predictor excluded), low-confidence %d of which mispredicted %d",
		sum.Fetched, sum.Committed, sum.Killed, sum.Cycles, sum.Divergences, predMiss, predCond, sum.LowConf, sum.LowConfMispred)
}

// mispredictErrPP is the mean absolute difference, in percentage points,
// between each stand-in's monopath misprediction rate (replicate 0) and
// Table 1's paper column.
func mispredictErrPP(cells []decompCell) float64 {
	paper := map[string]float64{}
	for _, bm := range workload.Suite(0) {
		paper[bm.Spec.Name] = bm.PaperMispredict
	}
	var sum float64
	n := 0
	for _, c := range cells {
		p, ok := paper[c.bench]
		if c.model != "monopath" || c.rep != 0 || !ok {
			continue
		}
		d := c.st.MispredictRate() - p
		if d < 0 {
			d = -d
		}
		sum += 100 * d
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
