// Command polysim runs a single cycle-level simulation of one benchmark
// under one machine configuration and prints the full statistics report.
//
// Usage:
//
//	polysim -bench go -model see            # PolyPath SEE (gshare + JRS)
//	polysim -bench gcc -model monopath      # baseline
//	polysim -bench perl -model dualpath     # one divergence at a time
//	polysim -bench go -model oracle         # perfect branch prediction
//	polysim -bench go -model see-oracle-ce  # SEE with perfect confidence
//	polysim -bench m88ksim -model adaptive  # SEE + PVN monitor
//
// Multi-model comparison (sharded through internal/sched; the table is
// byte-identical under any -j):
//
//	polysim -bench gcc -compare monopath,dualpath,see -j 4
//
// Observability:
//
//	polysim -bench compress -model dualpath -trace trace.json
//	    # cycle-level event trace, loadable in Perfetto / chrome://tracing
//	polysim -bench go -trace pipe.kanata -trace-format konata
//	    # per-instruction pipeline timeline for the Konata viewer
//	polysim -bench gcc -timeline 40
//	    # print stage timelines of the first 40 instructions
//	polysim -bench go -debug-addr localhost:6060
//	    # net/http/pprof plus live /metrics while the simulation runs
//
// Tracing is observation-only: the statistics report is bit-identical
// with and without it.
//
// Machine parameters (window size, functional units, pipeline depth,
// predictor size) can be overridden with flags; defaults are the paper's
// baseline (Sec. 4.2) with the scaled predictor tables described in
// DESIGN.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/bpred"
	"repro/internal/btrace"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/obs/debughttp"
	"repro/internal/obs/metrics"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/registry"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	bench := flag.String("bench", "go", "workload by name: compress,gcc,perl,go,m88ksim,xlisp,vortex,jpeg or any extended family (unknown names list every workload)")
	asmFile := flag.String("asm", "", "simulate an assembly file instead of a generated benchmark")
	model := flag.String("model", "see", "model: "+strings.Join(core.ModelNames(), ","))
	compare := flag.String("compare", "", "comma-separated models to run side by side through the sharded harness; prints one IPC table instead of a single-model report")
	jobs := flag.Int("j", 0, "worker shards for -compare (0 = GOMAXPROCS); the table is byte-identical under any value")
	insts := flag.Uint64("insts", 0, "dynamic instructions (0 = default 400k)")
	window := flag.Int("window", 0, "instruction window size (0 = 256)")
	depth := flag.Int("depth", 0, "total pipeline depth (0 = 8)")
	units := flag.Int("units", 0, "functional units of each type (0 = 4)")
	histBits := flag.Int("histbits", 0, "predictor hist_bits (0 = scaled baseline 11)")
	pred := flag.String("pred", "", "predictor kind override, any registered kind: "+strings.Join(pipeline.PredictorKinds(), ","))
	predParams := flag.String("pred-params", "", "predictor parameters as name=value[,name=value...] (schema-checked; e.g. -pred tage -pred-params tables=4,tag_bits=11)")
	policyKind := flag.String("policy", "", "adaptive SEE policy controller, any registered kind: "+strings.Join(policy.Kinds(), ","))
	policyCands := flag.String("policy-candidates", "", "comma-separated candidate presets for -policy: "+strings.Join(policy.PresetNames(), ",")+" (default: the model's configured behaviour for static, see,monopath otherwise)")
	policyEpoch := flag.Int("policy-epoch", 0, "policy epoch length in cycles (0 = default 4096)")
	policyParams := flag.String("policy-params", "", "controller parameters as name=value[,name=value...] (schema-checked; e.g. -policy online -policy-params explore_every=6,shift_milli=120)")
	seed := flag.Int64("seed", 0, "workload seed override (0 = benchmark default)")
	emitTrace := flag.String("emit-trace", "", "export the workload's branch trace to this PBT1 file (gzip when it ends in .gz) and exit; print the record count and content digest")
	importTrace := flag.String("import-trace", "", "characterize a PBT1 branch trace, synthesize a calibrated stand-in workload, and simulate it")
	disasm := flag.Bool("disasm", false, "print the generated program and exit")
	mix := flag.Bool("mix", false, "print the dynamic instruction mix and exit")
	timeline := flag.Uint64("timeline", 0, "collect and print pipeline timelines for the first N instructions")
	traceFile := flag.String("trace", "", "write a cycle-level event trace to this file (Chrome/Perfetto JSON, or Konata with -trace-format)")
	traceFormat := flag.String("trace-format", "auto", "trace file format: chrome, konata, auto (by extension: .kanata/.konata = konata)")
	traceLimit := flag.Int("trace-limit", 1<<20, "retain at most this many most-recent trace events")
	audit := flag.String("audit", "off", "invariant-audit level: off, commit, cycle (results are identical at every level)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and live /metrics on this address while simulating")
	version := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *version {
		fmt.Println("polysim", obs.Version())
		return
	}

	if *compare != "" {
		// The multi-config path is the harness's deterministic sharded
		// engine; the single-model observability hooks don't apply there.
		for flagName, set := range map[string]bool{
			"-asm": *asmFile != "", "-disasm": *disasm, "-mix": *mix,
			"-timeline": *timeline > 0, "-trace": *traceFile != "",
			"-debug-addr": *debugAddr != "", "-seed": *seed != 0,
			"-emit-trace": *emitTrace != "", "-import-trace": *importTrace != "",
		} {
			if set {
				fail(fmt.Errorf("%s is incompatible with -compare", flagName))
			}
		}
		runCompare(*compare, *jobs, *bench, *insts, *audit, *window, *depth, *units, *histBits, *pred, *predParams,
			*policyKind, *policyCands, *policyEpoch, *policyParams)
		return
	}

	var prog *isa.Program
	switch {
	case *importTrace != "":
		if *asmFile != "" {
			fail(fmt.Errorf("-asm is incompatible with -import-trace"))
		}
		bm, err := importedBenchmark(*importTrace, *insts)
		fail(err)
		*bench = bm.Spec.Name
		prog, err = workload.Generate(bm.Spec)
		fail(err)
	case *asmFile != "":
		src, err := os.ReadFile(*asmFile)
		fail(err)
		prog, err = isa.Assemble(string(src))
		fail(err)
		*bench = prog.Name
	default:
		bm, err := workload.ByName(*bench, *insts)
		fail(err)
		if *seed != 0 {
			bm.Spec.Seed = *seed
		}
		prog, err = workload.Generate(bm.Spec)
		fail(err)
	}
	if *disasm {
		fmt.Print(isa.DisasmProgram(prog))
		return
	}
	if *mix {
		prof, err := isa.ProfileProgram(prog, pipeline.DefaultRefCap)
		fail(err)
		fmt.Print(prof.String())
		return
	}
	if *emitTrace != "" {
		fail(emitTraceFile(*emitTrace, prog, *bench, *insts))
		return
	}

	base, err := core.ModelConfig(*model)
	fail(err)
	mods, err := machineMods(*window, *depth, *units, *histBits, *pred, *predParams,
		*policyKind, *policyCands, *policyEpoch, *policyParams)
	fail(err)
	// The validated constructor turns any invalid flag combination into a
	// descriptive typed error instead of a downstream panic.
	cfg, err := pipeline.NewConfigFrom(base, mods...)
	fail(err)
	cfg.Audit, err = pipeline.ParseAuditLevel(*audit)
	fail(err)

	var pt *pipeline.PipeTrace
	if *timeline > 0 {
		pt = pipeline.NewPipeTrace(*timeline)
	}
	var ring *obs.Ring
	if *traceFile != "" {
		ring = obs.NewRing(*traceLimit)
	}

	// Run the machine directly (rather than through core.RunCell) so the live
	// statistics can back the -debug-addr /metrics endpoint mid-simulation.
	m, err := pipeline.New(prog, cfg)
	fail(err)
	var tracers []pipeline.Tracer
	if pt != nil {
		tracers = append(tracers, pt)
	}
	if ring != nil {
		tracers = append(tracers, ring)
	}
	if tr := obs.Tee(tracers...); tr != nil {
		m.SetTracer(tr)
	}
	if *debugAddr != "" {
		serveDebug(*debugAddr, &m.Stats)
	}
	fail(m.Run())
	fail(m.VerifyArchState())

	fmt.Printf("benchmark %s, model %s (architectural state verified: %v)\n\n%s",
		*bench, *model, true, m.Stats.Summary())
	if cfg.Policy.Kind != "" {
		fmt.Printf("policy %s: %d epoch(s), %d switch(es)\n",
			cfg.Policy.Kind, len(m.Stats.EpochIPC), m.Stats.PolicySwitches)
	}
	if pt != nil {
		fmt.Println()
		fail(pt.Render(os.Stdout))
	}
	if ring != nil {
		fail(writeTrace(*traceFile, *traceFormat, *bench+"/"+*model, ring))
	}
}

// emitTraceFile exports the program's branch trace to path in PBT1 format
// (gzip-compressed when the path ends in .gz) and reports the record count
// and content digest — the digest names the trace when re-imported
// ("trace-<digest[:12]>"), so the round trip is content-addressed.
func emitTraceFile(path string, prog *isa.Program, bench string, insts uint64) error {
	if insts == 0 {
		insts = workload.DefaultTargetInsts
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	n, digest, err := btrace.WriteProgramTrace(f, prog, insts, bench, strings.HasSuffix(path, ".gz"))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("polysim: wrote %d branch record(s) to %s\ndigest: %s\nworkload: %s\n",
		n, path, digest, btrace.SynthName(digest))
	return nil
}

// importedBenchmark characterizes a PBT1 trace file and synthesizes a
// calibrated stand-in workload from it. A calibration near-miss (target
// rate unreachable within tolerance) is reported on stderr but the best
// candidate still runs.
func importedBenchmark(path string, insts uint64) (workload.Benchmark, error) {
	f, err := os.Open(path)
	if err != nil {
		return workload.Benchmark{}, err
	}
	defer f.Close()
	r, err := btrace.NewReader(f)
	if err != nil {
		return workload.Benchmark{}, err
	}
	ch, err := btrace.Characterize(r)
	if err != nil {
		return workload.Benchmark{}, err
	}
	bm, err := btrace.Synthesize(ch, insts)
	if err != nil {
		var ce *workload.CalibrationError
		if !errors.As(err, &ce) {
			return workload.Benchmark{}, err
		}
		fmt.Fprintln(os.Stderr, "polysim: warning:", err)
	}
	fmt.Fprintf(os.Stderr, "polysim: synthesized %s from %s (trace mispredict %.2f%%, stand-in %.2f%%, class %s)\n",
		bm.Spec.Name, path, 100*ch.Rate, 100*bm.PaperMispredict, ch.Class)
	return bm, nil
}

// runCompare simulates the benchmark under every named model at once,
// sharded over -j workers by the same deterministic engine behind
// cmd/experiments and polyserve sweeps, and prints the IPC table.
// Machine-parameter flag overrides apply to every model uniformly.
func runCompare(models string, workers int, bench string, insts uint64, audit string, window, depth, units, histBits int, pred, predParams, policyKind, policyCands string, policyEpoch int, policyParams string) {
	auditLevel, err := pipeline.ParseAuditLevel(audit)
	fail(err)
	mods, err := machineMods(window, depth, units, histBits, pred, predParams,
		policyKind, policyCands, policyEpoch, policyParams)
	fail(err)
	var configs []harness.NamedConfig
	for _, name := range strings.Split(models, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		base, err := core.ModelConfig(name)
		fail(err)
		cfg, err := pipeline.NewConfigFrom(base, mods...)
		fail(err)
		configs = append(configs, harness.NamedConfig{Name: name, Cfg: cfg})
	}
	opts := harness.Options{
		TargetInsts: insts,
		Parallelism: workers,
		Benchmarks:  []string{bench},
		Audit:       auditLevel,
	}
	m, err := harness.RunConfigs(opts, configs)
	fail(err)
	fmt.Print(harness.RenderTable(fmt.Sprintf("%s: model comparison (IPC)", bench), m))
}

// writeTrace exports the captured ring to path in the requested format.
func writeTrace(path, format, label string, ring *obs.Ring) error {
	if format == "auto" {
		switch strings.ToLower(filepath.Ext(path)) {
		case ".kanata", ".konata":
			format = "konata"
		default:
			format = "chrome"
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	events := ring.Snapshot()
	switch format {
	case "chrome":
		err = obs.WriteChromeTrace(f, []obs.CellTrace{{Label: label, Events: events, Dropped: ring.Dropped()}})
	case "konata":
		err = obs.WriteKonata(f, events)
	default:
		err = fmt.Errorf("unknown -trace-format %q (chrome, konata, auto)", format)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Fprintf(os.Stderr, "polysim: wrote %d trace event(s) to %s (%d dropped by the %d-event ring)\n",
			len(events), path, ring.Dropped(), ring.Cap())
	}
	return err
}

// serveDebug starts the live-introspection endpoint: net/http/pprof for
// CPU/heap/goroutine profiling of the running simulation, plus the
// simulator's counters and occupancy histograms as Prometheus /metrics.
func serveDebug(addr string, sim *stats.Sim) {
	reg := metrics.NewRegistry()
	reg.GaugeFunc("polysim_build_info", `version="`+strings.ReplaceAll(obs.Version(), `"`, "'")+`"`, "Build identity (constant 1).", func() float64 { return 1 })
	stats.RegisterSim(reg, "polysim", sim)
	go func() {
		if err := http.ListenAndServe(addr, debughttp.Handler(debughttp.Metrics(reg))); err != nil {
			fmt.Fprintln(os.Stderr, "polysim: debug server:", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "polysim: debug server on http://%s (/debug/pprof/, /metrics)\n", addr)
}

// machineMods translates the machine-parameter flags into config options.
// The -pred override swaps the predictor spec through the open registry:
// any registered kind is accepted, -pred-params feeds its schema, and the
// base model's hist_bits carries over when the new kind's schema accepts it
// (so "-model see -pred combining" keeps the scaled 11-bit sizing).
func machineMods(window, depth, units, histBits int, pred, predParams, policyKind, policyCands string, policyEpoch int, policyParams string) ([]pipeline.Option, error) {
	var mods []pipeline.Option
	if window > 0 {
		mods = append(mods, pipeline.WithWindowSize(window))
	}
	if depth > 0 {
		mods = append(mods, pipeline.WithPipelineDepth(depth))
	}
	if units > 0 {
		mods = append(mods, pipeline.WithUniformUnits(units))
	}
	if pred != "" {
		kind, err := pipeline.ParsePredictorKind(pred)
		if err != nil {
			return nil, err
		}
		params, err := parseParams("-pred-params", predParams)
		if err != nil {
			return nil, err
		}
		e, _ := bpred.Lookup(string(kind))
		carryHistBits := registry.HasParam(e.Params, "hist_bits")
		mods = append(mods, func(c *pipeline.Config) {
			// Fresh map per application: the same option may apply to
			// several -compare configs, which must not share param state.
			p := make(map[string]int, len(params)+1)
			for k, v := range params {
				p[k] = v
			}
			if _, explicit := p["hist_bits"]; !explicit && carryHistBits {
				if hb := c.Predictor.Param("hist_bits", 0); hb > 0 {
					p["hist_bits"] = hb
				}
			}
			c.Predictor = pipeline.PredictorOf(kind, p)
		})
	}
	if histBits > 0 {
		mods = append(mods, pipeline.WithHistoryBits(histBits))
	}
	if policyKind != "" {
		pmod, err := policyMod(policyKind, policyCands, policyEpoch, policyParams)
		if err != nil {
			return nil, err
		}
		mods = append(mods, pmod)
	} else if policyCands != "" || policyEpoch != 0 || policyParams != "" {
		return nil, fmt.Errorf("-policy-candidates/-policy-epoch/-policy-params require -policy")
	}
	return mods, nil
}

// policyMod builds the config option attaching an adaptive policy
// controller. Candidates are named presets (policy.PresetNames); when the
// flag is empty, static wraps the model's configured behaviour and the
// choosing controllers get the paper's see/monopath pair. Parameters pass
// through to the controller's schema, which validates names and ranges.
func policyMod(kind, cands string, epoch int, paramStr string) (pipeline.Option, error) {
	if cands == "" && kind != "static" {
		cands = "see,monopath"
	}
	var settings []policy.Setting
	for _, name := range strings.Split(cands, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		set, ok := policy.PresetSetting(name)
		if !ok {
			return nil, fmt.Errorf("-policy-candidates: unknown preset %q (valid: %s)",
				name, strings.Join(policy.PresetNames(), ","))
		}
		settings = append(settings, set)
	}
	params, err := parseParams("-policy-params", paramStr)
	if err != nil {
		return nil, err
	}
	return func(c *pipeline.Config) {
		// Fresh clones per application: the same option may apply to several
		// -compare configs, which must not share candidate or param state.
		spec := pipeline.PolicySpec{Kind: kind, EpochCycles: epoch}
		spec.Candidates = append([]policy.Setting(nil), settings...)
		spec.Params = registry.CloneParams(params)
		c.Policy = spec
	}, nil
}

// parseParams parses a name=value[,name=value...] parameter flag into a
// map (nil when the flag is empty). Names and ranges are left to the kind's
// schema; flagName prefixes syntax errors.
func parseParams(flagName, s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	params := make(map[string]int)
	for _, kv := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("%s: %q is not name=value", flagName, kv)
		}
		v, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil {
			return nil, fmt.Errorf("%s %s: %v", flagName, name, err)
		}
		params[strings.TrimSpace(name)] = v
	}
	return params, nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "polysim:", err)
		os.Exit(1)
	}
}
