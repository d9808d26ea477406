package isa

import (
	"errors"
	"sync"
)

// refcache.go caches reference functional runs per program. Every pipeline
// machine needs the in-order branch/jump record and the final architectural
// state of the workload it simulates (for the oracle predictor, the oracle
// confidence estimator, and end-of-run verification). The functional run is
// deterministic, so machines simulating the same program with the same
// instruction cap, or any cap past the point where the program halts, can
// share one run instead of re-interpreting the program per configuration —
// a large constant cost when a harness sweep builds dozens of machines
// over the same workloads.

// refRun is one cached reference execution. done is closed once trace,
// final and err are set; until then the run is in flight.
type refRun struct {
	maxInsts uint64
	done     chan struct{}
	trace    *RefTrace
	final    *Interp
	err      error
}

// serves reports whether the finished run r answers a request capped at
// maxInsts. A run cut short by its cap answers that cap only; a run that
// halted answers every cap at or above the instructions it executed,
// since a larger cap would halt at the same instruction.
func (r *refRun) serves(maxInsts uint64) bool {
	return r.maxInsts == maxInsts || (r.err == nil && r.final.Halted && r.final.InstCount <= maxInsts)
}

// refCache holds the reference runs of each program. Keying on the
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
	runs map[*Program][]*refRun
}

// refCacheMaxPrograms caps how many distinct programs the cache retains
// before it is cleared wholesale. A cached final state holds its
// memory's page table and the pages the run copied, not a full image.
const refCacheMaxPrograms = 64

// runRef is the reference run TraceCached caches; tests substitute it.
var runRef = traceRef

// errRunPanicked is the result of a reference run that panicked, for the
// requests that waited on it.
var errRunPanicked = errors.New("isa: reference run panicked")

// TraceCached returns the reference run for p capped at maxInsts,
// functionally executing the program only when no cached run of p
// answers that cap. The returned trace and interpreter are shared:
// callers must treat them as read-only. Concurrent requests that miss on
// the same (program, cap) pair wait for one run; the cache's lock is held
// only to look a run up or to insert one, so a hit never waits for a run
// of another program.
func TraceCached(p *Program, maxInsts uint64) (*RefTrace, *Interp, error) {
	r, owner := claimRef(p, maxInsts)
	if owner {
		r.run(p)
	}
	<-r.done
	return r.trace, r.final, r.err
}

// claimRef finds the run of p that answers maxInsts: a finished run that
// serves it, or one in flight under the same cap. Failing both, it inserts
// a new in-flight run, which the caller (owner) must execute.
func claimRef(p *Program, maxInsts uint64) (r *refRun, owner bool) {
	refCache.Lock()
	defer refCache.Unlock()
	runs, ok := refCache.runs[p]
	if refCache.runs == nil || (!ok && len(refCache.runs) >= refCacheMaxPrograms) {
		refCache.runs = make(map[*Program][]*refRun)
	}
	for _, r := range runs {
		select {
		case <-r.done:
			if r.serves(maxInsts) {
				return r, false
			}
		default:
			if r.maxInsts == maxInsts {
				return r, false
			}
		}
	}
	r = &refRun{maxInsts: maxInsts, done: make(chan struct{})}
	refCache.runs[p] = append(runs, r)
	return r, true
}

// run executes the reference run and publishes its result. If the run
// panics, the requests waiting on it fail with errRunPanicked and the
// panic goes on up the owner's stack.
func (r *refRun) run(p *Program) {
	r.err = errRunPanicked
	defer close(r.done)
	r.trace, r.final, r.err = runRef(p, r.maxInsts)
}
