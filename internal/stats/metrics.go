package stats

import (
	"sync/atomic"

	"repro/internal/obs/metrics"
)

// Register exposes the service counters on reg in Prometheus naming, as
// scrape-time reads of the existing atomics — no double accounting, no
// extra work on the update hot path.
func (s *Service) Register(reg *metrics.Registry) {
	ctr := func(name, labels, help string, v *atomic.Uint64) {
		reg.CounterFunc(name, labels, help, func() float64 { return float64(v.Load()) })
	}
	ctr("polyserve_jobs_total", `state="submitted"`, "Job lifecycle counts by terminal or entry state.", &s.JobsSubmitted)
	ctr("polyserve_jobs_total", `state="completed"`, "", &s.JobsCompleted)
	ctr("polyserve_jobs_total", `state="failed"`, "", &s.JobsFailed)
	ctr("polyserve_jobs_total", `state="cancelled"`, "", &s.JobsCancelled)
	ctr("polyserve_jobs_total", `state="rejected"`, "", &s.JobsRejected)
	ctr("polyserve_worker_panics_total", "", "Contained worker crashes (panics and machine checks).", &s.WorkerPanics)
	ctr("polyserve_jobs_quarantined_total", "", "Submissions refused by the crash-quarantine list.", &s.JobsQuarantined)
	ctr("polyserve_journal_resumed_total", "", "Journal records re-enqueued at startup.", &s.JournalResumed)
	ctr("polyserve_journal_dropped_total", "", "Corrupt, torn or stale journal records dropped at startup.", &s.JournalDropped)
	ctr("polyserve_cells_total", `source="simulated"`, "Result cells by origin: simulated or replayed from the memo cache.", &s.CellsSimulated)
	ctr("polyserve_cells_total", `source="cache"`, "", &s.CellsFromCache)
	ctr("polyserve_sim_insts_total", "", "Committed instructions across all simulated cells.", &s.SimInsts)
	reg.CounterFunc("polyserve_sim_seconds_total", "", "Wall-clock seconds spent inside simulations.",
		func() float64 { return float64(s.SimNanos.Load()) / 1e9 })
	ctr("polyserve_cells_dispatched_total", "", "Remote cell executions launched at fleet workers.", &s.CellsDispatched)
	ctr("polyserve_cells_redispatched_total", "", "Cell re-dispatches after a worker failure, eviction, or hedge.", &s.CellsRedispatched)
	ctr("polyserve_retry_budget_exhausted_total", "", "Cells failed because the dispatch retry budget ran dry.", &s.RetryBudgetExhausted)
	ctr("polyserve_workers_evicted_total", "", "Workers evicted after missing their heartbeat lease.", &s.WorkersEvicted)
	ctr("polyserve_store_ops_total", `op="hit"`, "Shared result-store operations: hits, puts, write conflicts and write errors.", &s.StoreHits)
	ctr("polyserve_store_ops_total", `op="put"`, "", &s.StorePuts)
	ctr("polyserve_store_ops_total", `op="conflict"`, "", &s.StoreConflicts)
	ctr("polyserve_store_ops_total", `op="error"`, "", &s.StoreErrors)
}

// Snapshot exports the histogram for the metrics registry: integer-valued
// occupancy buckets become le-bounds, and values clamped into the last
// bucket surface as the overflow (+Inf) count.
func (h *Histogram) Snapshot() metrics.HistogramSnapshot {
	n := len(h.buckets)
	if n == 0 {
		return metrics.HistogramSnapshot{Counts: []uint64{0}}
	}
	s := metrics.HistogramSnapshot{
		Bounds: make([]float64, n-1),
		Counts: make([]uint64, n),
		Count:  h.samples,
		Sum:    float64(h.sum),
	}
	for i := 0; i < n-1; i++ {
		s.Bounds[i] = float64(i)
	}
	copy(s.Counts, h.buckets)
	return s
}

// RegisterSim exposes a simulation's core counters and per-cycle
// occupancy distributions on reg under the given prefix (e.g. "polysim").
// Values are plain scrape-time reads of the Sim fields: exact once the
// run has finished, approximate (but harmless) while it is still
// advancing — the simulator's hot path is untouched.
func RegisterSim(reg *metrics.Registry, prefix string, s *Sim) {
	reg.CounterFunc(prefix+"_cycles_total", "", "Simulated cycles.", func() float64 { return float64(s.Cycles) })
	reg.CounterFunc(prefix+"_insts_total", `stage="fetched"`, "Instruction flow by pipeline stage.", func() float64 { return float64(s.Fetched) })
	reg.CounterFunc(prefix+"_insts_total", `stage="renamed"`, "", func() float64 { return float64(s.Renamed) })
	reg.CounterFunc(prefix+"_insts_total", `stage="committed"`, "", func() float64 { return float64(s.Committed) })
	reg.CounterFunc(prefix+"_insts_total", `stage="killed"`, "", func() float64 { return float64(s.Killed) })
	reg.GaugeFunc(prefix+"_ipc", "", "Committed instructions per cycle so far.", s.IPC)
	reg.CounterFunc(prefix+"_divergences_total", "", "SEE divergences created.", func() float64 { return float64(s.Divergences) })
	reg.CounterFunc(prefix+"_mispredicts_total", "", "Committed conditional-branch mispredictions.", func() float64 { return float64(s.Mispredicts) })
	reg.HistogramFunc(prefix+"_live_paths", "", "Live CTX paths per cycle.", s.PathHist.Snapshot)
	reg.HistogramFunc(prefix+"_window_occupancy", "", "Instruction-window entries per cycle.", s.WindowHist.Snapshot)
	reg.HistogramFunc(prefix+"_commits_per_cycle", "", "Instructions committed per cycle.", s.CommitHist.Snapshot)
}
