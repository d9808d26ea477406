package isa

import "sync"

// refcache.go caches reference functional runs per program. Every pipeline
// machine needs the in-order branch/jump record and the final architectural
// state of the workload it simulates (for the oracle predictor, the oracle
// confidence estimator, and end-of-run verification). The functional run is
// deterministic, so machines simulating the same program with the same
// instruction cap can share one run instead of re-interpreting the program
// per configuration — a large constant cost when a harness sweep builds
// dozens of machines over the same workloads.

// refRun is one cached reference execution.
type refRun struct {
	recs  []BranchRecord
	final *Interp
	err   error
}

// refCache holds the per-(program, maxInsts) reference runs. Keying on the
// Program pointer is correct because programs are immutable after
// construction: the same pointer always denotes the same code and data.
//
// The cache is bounded: harnesses regenerate workloads per experiment, so
// sharing only ever pays off among machines built from the same Program
// value, and old entries can never be requested again once their program is
// unreachable. Clearing wholesale past the cap keeps the steady-state
// footprint flat without per-entry bookkeeping.
var refCache struct {
	sync.Mutex
	runs map[*Program]map[uint64]*refRun
}

// refCacheMaxPrograms caps how many distinct programs the cache retains
// before it is cleared wholesale. A cached final state holds its
// memory's page table and the pages the run copied, not a full image.
const refCacheMaxPrograms = 64

// TraceCached returns the reference run for p capped at maxInsts,
// functionally executing the program only on the first request for that
// (program, cap) pair. The returned slice and interpreter are shared:
// callers must treat them as read-only. The lock is held across the
// underlying Trace so concurrent first requests dedupe onto one run.
func TraceCached(p *Program, maxInsts uint64) ([]BranchRecord, *Interp, error) {
	refCache.Lock()
	defer refCache.Unlock()
	if refCache.runs == nil {
		refCache.runs = make(map[*Program]map[uint64]*refRun)
	}
	byCap := refCache.runs[p]
	if byCap == nil {
		if len(refCache.runs) >= refCacheMaxPrograms {
			refCache.runs = make(map[*Program]map[uint64]*refRun)
		}
		byCap = make(map[uint64]*refRun)
		refCache.runs[p] = byCap
	}
	if r, ok := byCap[maxInsts]; ok {
		return r.recs, r.final, r.err
	}
	recs, final, err := Trace(p, maxInsts)
	byCap[maxInsts] = &refRun{recs: recs, final: final, err: err}
	return recs, final, err
}
