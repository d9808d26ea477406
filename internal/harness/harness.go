// Package harness regenerates every table and figure of the paper's
// evaluation section (Sec. 4-5): Table 1 (benchmark characteristics),
// Figure 8 (baseline performance incl. dual-path), Figure 9 (branch
// predictor size), Figure 10 (instruction window size), Figure 11
// (functional unit configuration), Figure 12 (pipeline depth), plus the
// ablations DESIGN.md calls out.
//
// Results are returned as structured tables and rendered as fixed-width
// text so cmd/experiments can print exactly the rows/series the paper
// reports.
package harness

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// MemoValue is one memoized simulation outcome: everything a Matrix cell
// needs. Simulations are deterministic, so replaying a MemoValue is
// bit-identical to re-running the cell.
type MemoValue struct {
	IPC   float64
	Stats stats.Sim
}

// Memo is a result cache consulted per (benchmark, config, replicate)
// cell, keyed by the canonical hash of the normalized config plus the
// workload identity and instruction cap. Implementations must be safe for
// concurrent use; LRU[MemoValue] satisfies the interface.
type Memo interface {
	Get(key string) (MemoValue, bool)
	Put(key string, v MemoValue)
}

// CellEvent reports one finished (benchmark, config, replicate) cell to
// Options.OnCell.
type CellEvent struct {
	Benchmark string
	Config    string
	Replicate int
	FromCache bool
	IPC       float64
	Committed uint64
	Cycles    uint64
	Elapsed   time.Duration
	// Shard is the scheduler worker that executed the cell, in
	// [0, Parallelism). Observability only: results never depend on it.
	Shard int
}

// CellID is the stable identity of one (benchmark, config, replicate)
// cell, used as the sched task ID and in the /v1/sweeps cell stream:
// "bench/config" for replicate 0, "bench/config/rN" beyond.
func CellID(benchmark, config string, replicate int) string {
	if replicate == 0 {
		return benchmark + "/" + config
	}
	return fmt.Sprintf("%s/%s/r%d", benchmark, config, replicate)
}

// CellKey is the content address of one simulation outcome: the workload
// identity (name, seed, dynamic length, and a digest of the whole spec)
// plus the canonical hash of the normalized configuration. The digest
// keeps two inline workloads that share a name, seed and length but
// differ in any other field apart. Two cells with equal keys are
// guaranteed bit-identical results (simulations are deterministic), so
// the key is safe to use for memoization, fleet-wide result stores, and
// idempotent re-execution after a crash.
func CellKey(spec workload.Spec, cfgHash string) string {
	return cellKeyPrefix(spec) + cfgHash
}

// cellKeyPrefix is CellKey up to the config hash:
// "w=name:seed:insts:digest|c=", where digest is the first 8 bytes of the
// SHA-256 of the spec's JSON encoding, in hex.
func cellKeyPrefix(spec workload.Spec) string {
	doc, err := json.Marshal(spec)
	if err != nil {
		// Only a NaN or infinite float field fails to encode; the %v
		// text still tells such specs apart.
		doc = fmt.Appendf(nil, "%v", spec)
	}
	sum := sha256.Sum256(doc)
	return fmt.Sprintf("w=%s:%d:%d:%x|c=", spec.Name, spec.Seed, spec.TargetInsts, sum[:8])
}

// CellSpec is the full identity of one cell handed to Options.Exec: enough
// for a remote node to regenerate the workload program deterministically
// and run the simulation, and for the caller to address the result.
type CellSpec struct {
	Benchmark string
	// Spec is the resolved workload spec, replicate seeding applied.
	Spec      workload.Spec
	Replicate int
	Config    core.Config
	// ConfigHash is the canonical polypath hash of Config.
	ConfigHash string
}

// Options configure an experiment run.
type Options struct {
	// TargetInsts is the dynamic instruction count per benchmark run
	// (0 = workload.DefaultTargetInsts). The paper runs 113M-553M; this
	// reproduction defaults to a scaled-down length (see DESIGN.md).
	TargetInsts uint64
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// Benchmarks restricts the suite to the named benchmarks (empty = the
	// Table 1 suite plus any Extra workloads). Names resolve against Extra
	// first, then workload.ByName (suite and extended families).
	Benchmarks []string
	// Extra supplies job-scoped workloads — typically trace-derived specs
	// named trace-<digest> — resolvable by name for this run only.
	// polyserve jobs wire their inline workload specs here.
	Extra []workload.Benchmark
	// Replicates re-runs every (benchmark, config) cell with additional
	// workload seeds and averages the IPC, tightening the estimates at a
	// proportional simulation cost (0 or 1 = single run, the default).
	Replicates int
	// Context cancels in-flight simulations mid-cycle-loop when done
	// (nil = background). The experiment returns the context's error.
	Context context.Context
	// Memo, when non-nil, caches per-cell results across runs. Results
	// are deterministic, so cache replay is bit-identical to simulation.
	Memo Memo
	// OnCell, when non-nil, observes every completed cell (including
	// cache hits). It may be called concurrently from worker goroutines.
	OnCell func(CellEvent)
	// Audit, when not AuditOff, overrides the invariant-audit level of
	// every simulated configuration. Auditing is excluded from the
	// canonical config hash (it cannot change results), so memoized cells
	// are shared across audit levels.
	Audit pipeline.AuditLevel
	// TraceLimit, when > 0 together with OnTrace, attaches a bounded
	// lock-free ring tracer (capacity TraceLimit events, keeping the most
	// recent) to every simulated cell. Tracing is observation-only: it is
	// excluded from the memo identity like Audit, results are
	// bit-identical with it on or off, and memoized (cache-replayed)
	// cells produce no events.
	TraceLimit int
	// OnTrace receives the captured event stream of every simulated
	// (non-memoized) cell: its CellEvent, the retained events in arrival
	// order, and how many events the capture bound dropped. It may be
	// called concurrently from worker goroutines.
	OnTrace func(ev CellEvent, events []pipeline.TraceEvent, dropped uint64)
	// Observer, when non-nil, receives scheduler lifecycle events
	// (task started/done per shard) for every simulation cell. polyserve
	// wires this to its sweep shard metrics.
	Observer sched.Observer
	// Exec, when non-nil, replaces in-process simulation of every
	// non-memoized cell: instead of generating the workload program and
	// running the pipeline locally, the cell's full identity is handed to
	// Exec, which must return the bit-identical MemoValue a local run
	// would produce. polyserve's coordinator wires this to remote worker
	// dispatch; simulations are deterministic, so any idempotent executor
	// keyed on CellKey preserves the harness's byte-identical-output
	// contract. Exec may be called concurrently. Tracing (OnTrace) is not
	// supported under Exec — remote cells produce no trace events.
	Exec func(ctx context.Context, cell CellSpec) (MemoValue, error)
}

func (o Options) context() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

func (o Options) replicates() int {
	if o.Replicates < 2 {
		return 1
	}
	return o.Replicates
}

func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// lookup resolves a benchmark name: job-scoped Extra workloads first, then
// workload.ByName (suite and extended families).
func (o Options) lookup(name string) (workload.Benchmark, error) {
	for _, b := range o.Extra {
		if b.Spec.Name != name {
			continue
		}
		if o.TargetInsts != 0 {
			b.Spec.TargetInsts = o.TargetInsts
		} else if b.Spec.TargetInsts == 0 {
			b.Spec.TargetInsts = workload.DefaultTargetInsts
		}
		return b, nil
	}
	return workload.ByName(name, o.TargetInsts)
}

// suite resolves the run's benchmarks: the named ones, or by default the
// Table 1 suite followed by the Extra workloads. Programs are generated
// later, per (benchmark, replicate), by the first cell that needs one
// (runMatrix).
func (o Options) suite() ([]workload.Benchmark, error) {
	var bms []workload.Benchmark
	if len(o.Benchmarks) == 0 {
		// Default matrix: the Table 1 suite (byte-identical to the
		// pre-Extra behaviour) plus any job-scoped workloads.
		bms = workload.Suite(o.TargetInsts)
		for _, b := range o.Extra {
			extra, err := o.lookup(b.Spec.Name)
			if err != nil {
				return nil, err
			}
			bms = append(bms, extra)
		}
	} else {
		for _, name := range o.Benchmarks {
			bm, err := o.lookup(name)
			if err != nil {
				return nil, err
			}
			bms = append(bms, bm)
		}
	}
	return bms, nil
}

// NamedConfig pairs a configuration with its display label.
type NamedConfig struct {
	Name string
	Cfg  core.Config
}

// Cell is one (benchmark, configuration) simulation outcome. With
// replicates, IPC is the mean across workload seeds and Stats comes from
// the canonical (replicate-0) seed.
type Cell struct {
	Benchmark string
	Config    string
	IPC       float64
	Stats     stats.Sim
	ipcByRep  []float64
}

// Matrix is a benchmark x configuration grid of simulation results.
type Matrix struct {
	Benchmarks []string
	Configs    []string
	cells      map[string]map[string]*Cell // benchmark -> config -> cell
}

// MarshalJSON renders the matrix as {benchmarks, configs, ipc} where ipc
// maps benchmark -> config -> IPC, for machine-readable experiment output.
func (m *Matrix) MarshalJSON() ([]byte, error) {
	ipc := make(map[string]map[string]float64, len(m.Benchmarks))
	for _, b := range m.Benchmarks {
		row := make(map[string]float64, len(m.Configs))
		for _, c := range m.Configs {
			row[c] = m.IPC(b, c)
		}
		ipc[b] = row
	}
	hmean := make(map[string]float64, len(m.Configs))
	for _, c := range m.Configs {
		hmean[c] = m.HarmonicMean(c)
	}
	return json.Marshal(struct {
		Benchmarks []string                      `json:"benchmarks"`
		Configs    []string                      `json:"configs"`
		IPC        map[string]map[string]float64 `json:"ipc"`
		HMean      map[string]float64            `json:"hmean"`
	}{m.Benchmarks, m.Configs, ipc, hmean})
}

// Cell returns the result for (benchmark, config), or nil.
func (m *Matrix) Cell(benchmark, config string) *Cell {
	row := m.cells[benchmark]
	if row == nil {
		return nil
	}
	return row[config]
}

// IPC returns the IPC for (benchmark, config); 0 if missing.
func (m *Matrix) IPC(benchmark, config string) float64 {
	if c := m.Cell(benchmark, config); c != nil {
		return c.IPC
	}
	return 0
}

// HarmonicMean returns the harmonic-mean IPC of a configuration across all
// benchmarks, the aggregation the paper uses.
func (m *Matrix) HarmonicMean(config string) float64 {
	vals := make([]float64, 0, len(m.Benchmarks))
	for _, b := range m.Benchmarks {
		vals = append(vals, m.IPC(b, config))
	}
	return stats.HarmonicMeanIPC(vals)
}

// runMatrix simulates every benchmark under every configuration through
// the internal/sched engine. Each (benchmark, replicate) program is
// generated at most once, inside the first of its cells that misses the
// memo and runs locally; the program's other cells wait for that and
// reuse it. So a run whose cells all replay from Options.Memo, or all go
// to Options.Exec, generates nothing, and a generation error fails every
// cell of its program. With Options.Context set, cancellation aborts
// in-flight cycle loops.
//
// Determinism contract: cells are submitted in (benchmark, config,
// replicate) order with stable IDs, the engine merges results
// positionally, and the matrix is reduced sequentially afterwards — so
// the matrix (and any table rendered from it) is bit-identical under any
// Parallelism, and the first error reported is the lowest-ordered
// failing cell, every run.
func runMatrix(opts Options, configs []NamedConfig) (*Matrix, error) {
	ctx := opts.context()
	bms, err := opts.suite()
	if err != nil {
		return nil, err
	}
	mat := &Matrix{cells: make(map[string]map[string]*Cell)}
	for _, bm := range bms {
		mat.Benchmarks = append(mat.Benchmarks, bm.Spec.Name)
		mat.cells[bm.Spec.Name] = make(map[string]*Cell)
	}
	for _, nc := range configs {
		mat.Configs = append(mat.Configs, nc.Name)
	}
	// One canonical hash per configuration, shared by all its cells.
	// Needed by the memo key and by remote dispatch (Exec) alike.
	cfgHash := make([]string, len(configs))
	if opts.Memo != nil || opts.Exec != nil {
		for i, nc := range configs {
			h, err := pipeline.CanonicalHash(nc.Cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", nc.Name, err)
			}
			cfgHash[i] = h
		}
	}

	// program is one (benchmark, replicate) workload, shared by the
	// cells of every configuration and generated on first use.
	type program struct {
		spec      workload.Spec // replicate seeding applied
		keyPrefix string        // CellKey's workload part (Memo only)
		once      sync.Once
		prog      *isa.Program
		err       error
	}
	reps := opts.replicates()
	progs := make([]program, len(bms)*reps)
	for i, bm := range bms {
		for r := 0; r < reps; r++ {
			p := &progs[i*reps+r]
			p.spec = bm.Spec
			p.spec.Seed += int64(1000 * r)
			if opts.Memo != nil {
				p.keyPrefix = cellKeyPrefix(p.spec)
			}
		}
	}
	type job struct {
		bench string
		prog  *program
		nc    NamedConfig
		hash  string
		rep   int
	}
	jobs := make([]job, 0, len(bms)*len(configs)*reps)
	for i, bm := range bms {
		for ci, nc := range configs {
			for r := 0; r < reps; r++ {
				jobs = append(jobs, job{
					bench: bm.Spec.Name, prog: &progs[i*reps+r],
					nc: nc, hash: cfgHash[ci], rep: r,
				})
			}
		}
	}

	type cellOut struct {
		val       MemoValue
		fromCache bool
	}
	// One arena per scheduler shard: a shard's tasks run strictly
	// sequentially on one worker, so its arena recycles machine buffers
	// from cell to cell without locking.
	arenas := make([]*pipeline.Arena, opts.parallelism())
	for i := range arenas {
		arenas[i] = pipeline.NewArena()
	}
	tasks := make([]sched.Task[cellOut], len(jobs))
	for i, j := range jobs {
		j := j
		tasks[i] = sched.Task[cellOut]{
			ID: CellID(j.bench, j.nc.Name, j.rep),
			Run: func(tc *sched.TaskContext) (cellOut, error) {
				var (
					out  cellOut
					key  string
					ring *obs.Ring
				)
				start := time.Now()
				p := j.prog
				if opts.Memo != nil {
					key = p.keyPrefix + j.hash
					out.val, out.fromCache = opts.Memo.Get(key)
				}
				if !out.fromCache {
					if opts.Exec != nil {
						v, err := opts.Exec(tc.Context, CellSpec{
							Benchmark:  j.bench,
							Spec:       p.spec,
							Replicate:  j.rep,
							Config:     j.nc.Cfg,
							ConfigHash: j.hash,
						})
						if err != nil {
							return out, fmt.Errorf("%s/%s: %w", j.bench, j.nc.Name, err)
						}
						out.val = v
					} else {
						p.once.Do(func() { p.prog, p.err = workload.Generate(p.spec) })
						if p.err != nil {
							return out, fmt.Errorf("%s/%s: %w", j.bench, j.nc.Name, p.err)
						}
						cfg := j.nc.Cfg
						if opts.Audit != pipeline.AuditOff {
							cfg.Audit = opts.Audit
						}
						var tr pipeline.Tracer
						if opts.TraceLimit > 0 && opts.OnTrace != nil {
							ring = obs.NewRing(opts.TraceLimit)
							tr = ring
						}
						res, err := core.RunCell(tc.Context, p.prog, cfg, tr, arenas[tc.Shard])
						if err != nil {
							return out, fmt.Errorf("%s/%s: %w", j.bench, j.nc.Name, err)
						}
						out.val = MemoValue{IPC: res.IPC, Stats: res.Stats}
					}
					if opts.Memo != nil {
						opts.Memo.Put(key, out.val)
					}
				}
				cellEv := CellEvent{
					Benchmark: j.bench,
					Config:    j.nc.Name,
					Replicate: j.rep,
					FromCache: out.fromCache,
					IPC:       out.val.IPC,
					Committed: out.val.Stats.Committed,
					Cycles:    out.val.Stats.Cycles,
					Elapsed:   time.Since(start),
					Shard:     tc.Shard,
				}
				if ring != nil {
					opts.OnTrace(cellEv, ring.Snapshot(), ring.Dropped())
				}
				if opts.OnCell != nil {
					opts.OnCell(cellEv)
				}
				return out, nil
			},
		}
	}
	// ContainPanics: a panic in a cell (outside the pipeline's own
	// machine-check containment) fails the cell, not the process.
	results, runErr := sched.Run(sched.Options{
		Workers:       opts.parallelism(),
		Context:       ctx,
		ContainPanics: true,
		Observer:      opts.Observer,
	}, tasks)
	if runErr != nil {
		// Task errors already carry the cell identity (the sim path wraps
		// with bench/config, a contained panic is a *sched.PanicError
		// naming its task); cancellation skips are the bare context error.
		return nil, runErr
	}
	// Order-preserving merge: fill the matrix from the positional results,
	// strictly sequentially, in submission order.
	for i, j := range jobs {
		cell := mat.cells[j.bench][j.nc.Name]
		if cell == nil {
			cell = &Cell{
				Benchmark: j.bench,
				Config:    j.nc.Name,
				ipcByRep:  make([]float64, reps),
			}
			mat.cells[j.bench][j.nc.Name] = cell
		}
		val := results[i].Value.val
		cell.ipcByRep[j.rep] = val.IPC
		if j.rep == 0 {
			// Replicate 0 (the suite's canonical seed) carries the
			// detailed statistics; extra replicates only tighten IPC.
			cell.Stats = val.Stats
		}
	}
	for _, row := range mat.cells {
		for _, cell := range row {
			sum := 0.0
			for _, v := range cell.ipcByRep {
				sum += v
			}
			cell.IPC = sum / float64(len(cell.ipcByRep))
		}
	}
	return mat, nil
}

// RunConfigs is the exported deterministic fan-out: it simulates every
// benchmark of the suite under every named configuration and returns the
// result matrix. It is the engine behind the figure/ablation experiments
// and the custom single-config and sweep jobs polyserve accepts — both
// paths produce bit-identical numbers for the same inputs.
func RunConfigs(opts Options, configs []NamedConfig) (*Matrix, error) {
	if len(configs) == 0 {
		return nil, fmt.Errorf("harness: no configurations given")
	}
	seen := make(map[string]bool, len(configs))
	for _, nc := range configs {
		if nc.Name == "" {
			return nil, fmt.Errorf("harness: configuration with empty name")
		}
		if seen[nc.Name] {
			return nil, fmt.Errorf("harness: duplicate configuration name %q", nc.Name)
		}
		seen[nc.Name] = true
	}
	return runMatrix(opts, configs)
}

// RenderTable renders a matrix as the fixed-width benchmark x
// configuration IPC table with a harmonic-mean row, in the paper's
// presentation style. cmd/experiments and polyserve both use it, so
// service responses and CLI output are byte-identical.
func RenderTable(title string, m *Matrix) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-10s", "benchmark")
	for _, c := range m.Configs {
		fmt.Fprintf(&b, " %18s", c)
	}
	b.WriteByte('\n')
	for _, bm := range m.Benchmarks {
		fmt.Fprintf(&b, "%-10s", bm)
		for _, c := range m.Configs {
			fmt.Fprintf(&b, " %18.3f", m.IPC(bm, c))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-10s", "hmean")
	for _, c := range m.Configs {
		fmt.Fprintf(&b, " %18.3f", m.HarmonicMean(c))
	}
	b.WriteByte('\n')
	return b.String()
}
