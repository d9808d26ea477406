package server

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// JobState is the lifecycle state of a submitted job.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// ConfigEntry names one machine configuration of a job: either a
// registered model name ("see", "monopath", "dualpath", ...) or a full
// config document (polypath/v2, or a legacy read-only polypath/v1 one;
// see pipeline.DecodeConfig). Exactly one of Model/Config must be set.
type ConfigEntry struct {
	Name   string          `json:"name"`
	Model  string          `json:"model,omitempty"`
	Config json.RawMessage `json:"config,omitempty"`
}

// JobRequest is the submission body for POST /v1/jobs. A job is either a
// registered experiment (the exact tables of cmd/experiments: "table1",
// "fig8", ..., "abl-*", "ext-*") or a custom sweep over explicit
// configurations (a single entry is a single-config job).
type JobRequest struct {
	// Experiment names a registered experiment. Mutually exclusive with
	// Configs.
	Experiment string `json:"experiment,omitempty"`
	// Configs lists the configurations of a custom sweep.
	Configs []ConfigEntry `json:"configs,omitempty"`
	// Title overrides the rendered table title for custom sweeps.
	Title string `json:"title,omitempty"`
	// Insts is the dynamic instruction count per benchmark run
	// (0 = the default 400k).
	Insts uint64 `json:"insts,omitempty"`
	// Benchmarks restricts the suite (empty = all eight plus any
	// Workloads entries).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Workloads carries inline workload specs scoped to this job — the
	// trace-derived stand-ins that polychar synthesizes ("trace-<digest>")
	// travel here, so a fleet can sweep a trace-backed workload without
	// any worker-side registration. Names must not collide with the
	// built-in families; the specs join the suite (and may be referenced
	// from Benchmarks). Cell identity (harness.CellKey) includes a
	// digest of the whole spec, so two inline workloads that share a
	// name, seed and length but differ in body never share memo or
	// result-store entries.
	Workloads []workload.Spec `json:"workloads,omitempty"`
	// Replicates averages extra workload seeds per cell (0/1 = single).
	Replicates int `json:"replicates,omitempty"`
	// TimeoutSec caps the job's wall time (0 = server default).
	TimeoutSec int `json:"timeout_sec,omitempty"`
	// Trace captures a bounded cycle-level pipeline trace of every
	// simulated cell, downloadable from GET /v1/jobs/{id}/trace as
	// Chrome/Perfetto trace_event JSON once the job finishes. Tracing is
	// observation-only (results are bit-identical, memoization identity is
	// unchanged); memoized cells replay without simulating and therefore
	// contribute no events.
	Trace bool `json:"trace,omitempty"`
	// TraceLimit caps retained events per cell (0 = server default;
	// bounded by the server's whole-job budget).
	TraceLimit int `json:"trace_limit,omitempty"`
}

// JobResult is the completed outcome of a job.
type JobResult struct {
	// Text is the rendered table, byte-identical to cmd/experiments
	// output for the same request.
	Text string `json:"text"`
	// Cells counts (benchmark, config, replicate) cells; CacheHits of
	// those were replayed from the memoization cache.
	Cells     int `json:"cells"`
	CacheHits int `json:"cache_hits"`
	// SimInsts is the total committed instructions behind the result
	// (cache hits included).
	SimInsts uint64 `json:"sim_insts"`
}

// Job is one submitted experiment. Mutable fields are guarded by the
// owning Server's mutex.
type Job struct {
	ID        string     `json:"id"`
	State     JobState   `json:"state"`
	Request   JobRequest `json:"request"`
	Submitted time.Time  `json:"submitted_at"`
	Started   *time.Time `json:"started_at,omitempty"`
	Finished  *time.Time `json:"finished_at,omitempty"`
	Error     string     `json:"error,omitempty"`
	// Tenant is the fair-queuing bucket the job was admitted under (the
	// X-Tenant request header; empty = default tenant).
	Tenant string     `json:"tenant,omitempty"`
	Result *JobResult `json:"-"` // served by /v1/results/{id}

	// configs is the resolved custom sweep (nil for experiment jobs).
	configs []harness.NamedConfig
	// cancel aborts the running simulation (nil unless running).
	cancel context.CancelFunc
	// trace accumulates captured cell streams when Request.Trace is set
	// (nil until the job starts running; see trace.go).
	trace *jobTrace
	// cells logs the job's completed cells for GET /v1/jobs/{id}/cells
	// (see cells.go). Set when the job is admitted or resumed.
	cells *cellLog
	// seq is the scheduler's arrival stamp (drain ordering across
	// tenants).
	seq uint64
}

// extra converts the inline workload specs into the harness's job-scoped
// benchmark list (Options.Extra).
func (r JobRequest) extra() []workload.Benchmark {
	if len(r.Workloads) == 0 {
		return nil
	}
	out := make([]workload.Benchmark, len(r.Workloads))
	for i, spec := range r.Workloads {
		out[i] = workload.Benchmark{Spec: spec}
	}
	return out
}

// title returns the rendered-table title of a custom sweep.
func (r JobRequest) title() string {
	if r.Title != "" {
		return r.Title
	}
	if len(r.Configs) == 1 {
		return fmt.Sprintf("single config: %s (IPC)", r.Configs[0].Name)
	}
	return "custom sweep (IPC)"
}

// resolve validates the request and materializes the configurations of a
// custom sweep. maxInsts bounds the per-benchmark dynamic length a client
// may request (0 = unbounded). All errors are client errors (HTTP 400).
func (r JobRequest) resolve(maxInsts uint64) ([]harness.NamedConfig, error) {
	if (r.Experiment == "") == (len(r.Configs) == 0) {
		return nil, fmt.Errorf("request must set exactly one of \"experiment\" or \"configs\"")
	}
	if maxInsts > 0 && r.Insts > maxInsts {
		return nil, fmt.Errorf("insts %d exceeds the server cap %d", r.Insts, maxInsts)
	}
	if r.Replicates < 0 || r.Replicates > 64 {
		return nil, fmt.Errorf("replicates %d out of [0,64]", r.Replicates)
	}
	if r.TimeoutSec < 0 {
		return nil, fmt.Errorf("timeout_sec must be >= 0")
	}
	if r.TraceLimit < 0 {
		return nil, fmt.Errorf("trace_limit must be >= 0")
	}
	if r.TraceLimit > 0 && !r.Trace {
		return nil, fmt.Errorf("trace_limit requires \"trace\": true")
	}
	if len(r.Workloads) > 16 {
		return nil, fmt.Errorf("%d inline workloads exceed the 16-spec bound", len(r.Workloads))
	}
	inline := make(map[string]bool, len(r.Workloads))
	for i, spec := range r.Workloads {
		// TargetInsts 0 means "the job's Insts (or the default)" — the
		// harness applies that override at lookup time.
		c := spec
		if c.TargetInsts == 0 {
			c.TargetInsts = workload.DefaultTargetInsts
		}
		if err := workload.CheckSpec(c); err != nil {
			return nil, fmt.Errorf("workloads[%d]: %w", i, err)
		}
		if inline[spec.Name] {
			return nil, fmt.Errorf("workloads[%d]: duplicate name %q", i, spec.Name)
		}
		if _, err := workload.ByName(spec.Name, 0); err == nil {
			return nil, fmt.Errorf("workloads[%d]: name %q collides with a registered workload", i, spec.Name)
		}
		inline[spec.Name] = true
	}
	for _, b := range r.Benchmarks {
		if inline[b] {
			continue
		}
		if _, err := workload.ByName(b, 0); err != nil {
			return nil, err
		}
	}
	if r.Experiment != "" {
		for _, e := range harness.Experiments() {
			if e.Name == r.Experiment {
				return nil, nil
			}
		}
		return nil, fmt.Errorf("unknown experiment %q (known: %v)", r.Experiment, harness.ExperimentNames())
	}
	if len(r.Configs) > 64 {
		return nil, fmt.Errorf("sweep of %d configs exceeds the 64-config bound", len(r.Configs))
	}
	configs := make([]harness.NamedConfig, 0, len(r.Configs))
	seen := make(map[string]bool, len(r.Configs))
	for i, e := range r.Configs {
		if e.Name == "" {
			return nil, fmt.Errorf("configs[%d]: missing \"name\"", i)
		}
		if seen[e.Name] {
			return nil, fmt.Errorf("configs[%d]: duplicate name %q", i, e.Name)
		}
		seen[e.Name] = true
		switch {
		case e.Model != "" && len(e.Config) > 0:
			return nil, fmt.Errorf("configs[%d] (%s): set \"model\" or \"config\", not both", i, e.Name)
		case e.Model != "":
			cfg, err := core.ModelConfig(e.Model)
			if err != nil {
				return nil, fmt.Errorf("configs[%d] (%s): %w", i, e.Name, err)
			}
			configs = append(configs, harness.NamedConfig{Name: e.Name, Cfg: cfg})
		case len(e.Config) > 0:
			// Schema-sniffing decode: accepts open polypath/v2 documents
			// and legacy read-only polypath/v1 ones.
			cfg, err := pipeline.DecodeConfig(e.Config)
			if err != nil {
				return nil, fmt.Errorf("configs[%d] (%s): %w", i, e.Name, err)
			}
			configs = append(configs, harness.NamedConfig{Name: e.Name, Cfg: cfg})
		default:
			return nil, fmt.Errorf("configs[%d] (%s): need \"model\" or \"config\"", i, e.Name)
		}
	}
	return configs, nil
}
