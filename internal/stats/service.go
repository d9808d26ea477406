package stats

import "sync/atomic"

// Service accumulates the operational counters of a long-running
// simulation service (polyserve): job lifecycle counts, memoization
// effectiveness, aggregate simulation throughput, and fleet dispatch and
// result-store traffic. All fields are updated with atomics so the hot
// path (worker goroutines reporting per-cell completions) never contends
// on a lock.
type Service struct {
	JobsSubmitted atomic.Uint64
	JobsCompleted atomic.Uint64
	JobsFailed    atomic.Uint64
	JobsCancelled atomic.Uint64
	JobsRejected  atomic.Uint64 // backpressure: queue-full rejections

	WorkerPanics    atomic.Uint64 // contained worker crashes (panics + machine checks)
	JobsQuarantined atomic.Uint64 // submissions rejected by the crash-quarantine list

	JournalResumed atomic.Uint64 // journal records successfully re-enqueued at startup
	JournalDropped atomic.Uint64 // corrupt, torn or stale journal records dropped at startup

	CellsSimulated atomic.Uint64 // (benchmark, config, replicate) cells actually run
	CellsFromCache atomic.Uint64 // cells served from the memoization cache

	SimInsts atomic.Uint64 // committed instructions across all simulated cells
	SimNanos atomic.Int64  // wall nanoseconds spent inside simulations

	// Fleet (coordinator/worker mode).
	CellsDispatched      atomic.Uint64 // remote cell executions launched at workers
	CellsRedispatched    atomic.Uint64 // re-dispatches after a worker failure, eviction, or hedge
	RetryBudgetExhausted atomic.Uint64 // cells failed because the dispatch retry budget ran dry
	WorkersEvicted       atomic.Uint64 // workers evicted after missing their heartbeat lease
	TenantRejected       atomic.Uint64 // submissions rejected by a full per-tenant queue
	StoreHits            atomic.Uint64 // cells served from the shared content-addressed result store
	StorePuts            atomic.Uint64 // results written to the store
	StoreConflicts       atomic.Uint64 // store writes that disagreed with an existing result (determinism violation)
	StoreErrors          atomic.Uint64 // store writes that failed with an I/O error
}

// ServiceSnapshot is a consistent-enough point-in-time copy of the
// counters, shaped for the /v1/stats JSON response.
type ServiceSnapshot struct {
	JobsSubmitted uint64 `json:"jobs_submitted"`
	JobsCompleted uint64 `json:"jobs_completed"`
	JobsFailed    uint64 `json:"jobs_failed"`
	JobsCancelled uint64 `json:"jobs_cancelled"`
	JobsRejected  uint64 `json:"jobs_rejected"`

	WorkerPanics    uint64 `json:"worker_panics"`
	JobsQuarantined uint64 `json:"jobs_quarantined"`

	JournalResumed uint64 `json:"journal_resumed"`
	JournalDropped uint64 `json:"journal_dropped"`

	CellsSimulated uint64 `json:"cells_simulated"`
	CellsFromCache uint64 `json:"cells_from_cache"`

	SimInsts       uint64  `json:"sim_insts"`
	SimWallSeconds float64 `json:"sim_wall_seconds"`
	SimInstsPerSec float64 `json:"sim_insts_per_sec"`

	CellsDispatched      uint64 `json:"cells_dispatched,omitempty"`
	CellsRedispatched    uint64 `json:"cells_redispatched,omitempty"`
	RetryBudgetExhausted uint64 `json:"retry_budget_exhausted,omitempty"`
	WorkersEvicted       uint64 `json:"workers_evicted,omitempty"`
	TenantRejected       uint64 `json:"tenant_rejected,omitempty"`
	StoreHits            uint64 `json:"store_hits,omitempty"`
	StorePuts            uint64 `json:"store_puts,omitempty"`
	StoreConflicts       uint64 `json:"store_conflicts,omitempty"`
	StoreErrors          uint64 `json:"store_errors,omitempty"`
}

// Snapshot reads every counter and derives the throughput figures.
func (s *Service) Snapshot() ServiceSnapshot {
	insts := s.SimInsts.Load()
	nanos := s.SimNanos.Load()
	snap := ServiceSnapshot{
		JobsSubmitted:   s.JobsSubmitted.Load(),
		JobsCompleted:   s.JobsCompleted.Load(),
		JobsFailed:      s.JobsFailed.Load(),
		JobsCancelled:   s.JobsCancelled.Load(),
		JobsRejected:    s.JobsRejected.Load(),
		WorkerPanics:    s.WorkerPanics.Load(),
		JobsQuarantined: s.JobsQuarantined.Load(),
		JournalResumed:  s.JournalResumed.Load(),
		JournalDropped:  s.JournalDropped.Load(),
		CellsSimulated:  s.CellsSimulated.Load(),
		CellsFromCache:  s.CellsFromCache.Load(),
		SimInsts:        insts,
		SimWallSeconds:  float64(nanos) / 1e9,
	}
	if nanos > 0 {
		snap.SimInstsPerSec = float64(insts) / (float64(nanos) / 1e9)
	}
	snap.CellsDispatched = s.CellsDispatched.Load()
	snap.CellsRedispatched = s.CellsRedispatched.Load()
	snap.RetryBudgetExhausted = s.RetryBudgetExhausted.Load()
	snap.WorkersEvicted = s.WorkersEvicted.Load()
	snap.TenantRejected = s.TenantRejected.Load()
	snap.StoreHits = s.StoreHits.Load()
	snap.StorePuts = s.StorePuts.Load()
	snap.StoreConflicts = s.StoreConflicts.Load()
	snap.StoreErrors = s.StoreErrors.Load()
	return snap
}
