package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// dispatch.go is the coordinator's cell executor: it is wired in as
// harness Options.Exec, so every non-memoized cell of a coordinator job
// becomes one remote execution against the worker fleet instead of a
// local simulation. The policy, in order:
//
//   - Result store first: a cell already computed by anyone in the fleet
//     (this job, a previous job, a previous coordinator incarnation) is
//     served from the content-addressed store without dispatch; the
//     coordinator's memo (cellMemo) reads it before Exec is called.
//   - Consistent-hash ownership: the cell's content address picks its
//     worker, so each worker's local memo cache stays hot across sweeps.
//   - Per-cell deadline (Config.CellTimeout) on the whole dispatch
//     including retries and hedges.
//   - Failure → walk the ring successors, never re-trying a worker that
//     already failed this cell in this round; when every live worker has
//     failed it once, the round resets (workers restart under stable IDs,
//     so a comeback deserves a fresh chance). At most cellRetries
//     launches follow the first.
//   - Every launch after the first consumes a token from the
//     coordinator-wide retry budget (retryBurst tokens, refilled at
//     retryRefillPerSec) — a flapping worker degrades throughput but
//     cannot amplify one cell into unbounded fleet load.
//   - Two crashes fail fast: once a second dispatch of the cell crashes
//     its worker, the request is at fault, not a node, and the cell fails
//     without further dispatch.
//   - Hedged re-dispatch: if every worker running the cell stops
//     heartbeating while our call is in flight (SIGKILL, wedge,
//     partition), one more attempt launches on the next live successor;
//     first success wins, the loser's response is discarded.
//
// Cells are idempotent (deterministic simulation keyed by content
// address), so duplicated execution from hedging is always safe; the
// result store's conflict audit would catch any violation.

// ErrRetryBudgetExhausted marks cells failed by admission control: the
// coordinator refused to keep re-dispatching.
var ErrRetryBudgetExhausted = errors.New("server: dispatch retry budget exhausted")

// ErrNoWorkers marks a dispatch that found no live worker before the
// cell deadline.
var ErrNoWorkers = errors.New("server: no live workers")

// The retry budget: a burst of retryBurst re-dispatches, refilled at
// retryRefillPerSec. cellRetries caps one cell's launches after the first.
const (
	retryBurst        = 256
	retryRefillPerSec = 64
	cellRetries       = 8
)

// tokenBucket is the coordinator-wide retry budget: retryBurst tokens,
// refilled continuously at retryRefillPerSec. take is non-blocking.
type tokenBucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
}

func newTokenBucket() *tokenBucket {
	return &tokenBucket{tokens: retryBurst, last: time.Now()}
}

func (b *tokenBucket) take() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	b.tokens = min(b.tokens+now.Sub(b.last).Seconds()*retryRefillPerSec, retryBurst)
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// dispatchPollInterval paces the waiting loops: how often an idle
// dispatch re-checks fleet membership, and how often an in-flight
// dispatch checks whether its workers were evicted.
const dispatchPollInterval = 100 * time.Millisecond

// execRemote runs one cell on the worker fleet (the coordinator's
// harness Options.Exec). The memo in front of it (cellMemo) has already
// missed, and writes the result to the LRU and the store.
func (s *Server) execRemote(ctx context.Context, cell harness.CellSpec) (harness.MemoValue, error) {
	var zero harness.MemoValue
	key := harness.CellKey(cell.Spec, cell.ConfigHash)
	blob, err := pipeline.EncodeConfigV2(cell.Config)
	if err != nil {
		return zero, fmt.Errorf("encode config for dispatch: %w", err)
	}
	req := CellRequest{
		Benchmark:  cell.Benchmark,
		Seed:       cell.Spec.Seed,
		Insts:      cell.Spec.TargetInsts,
		Replicate:  cell.Replicate,
		Config:     blob,
		ConfigHash: cell.ConfigHash,
	}
	if _, err := workload.ByName(cell.Benchmark, 0); err != nil {
		// Job-scoped workload (trace-derived stand-in): no worker can
		// resolve the name, so the already-resolved spec travels inline.
		spec := cell.Spec
		req.Spec = &spec
	}
	if s.cfg.Audit != pipeline.AuditOff {
		req.Audit = s.cfg.Audit.String()
	}

	cctx, cancel := context.WithTimeout(ctx, s.cfg.CellTimeout)
	defer cancel()

	type attempt struct {
		resp CellResponse
		err  error
		w    *workerEntry
	}
	// Buffered past the launch cap so abandoned attempts never block on
	// send after we return.
	resCh := make(chan attempt, cellRetries+4)
	tried := make(map[string]bool)    // failed or launched this round
	inflight := make(map[string]bool) // launched, no result yet
	launched := 0
	var firstCrash error // the first attempt that crashed its worker
	var lastErr error

	launch := func(w *workerEntry) {
		tried[w.id] = true
		inflight[w.id] = true
		launched++
		s.svc.CellsDispatched.Add(1)
		go func() {
			start := time.Now()
			resp, err := w.caller.RunCell(cctx, req)
			s.observeWorkerCell(w.id, time.Since(start), err)
			resCh <- attempt{resp: resp, err: err, w: w}
		}()
	}

	// nextWorker picks the cell's owner among workers not yet tried this
	// round, resetting the round when every live worker has already
	// failed it once (a restarted worker re-registers under its old ID
	// and deserves a fresh attempt). Skips in-flight workers on reset.
	nextWorker := func() *workerEntry {
		if w := s.registry.owner(key, tried); w != nil {
			return w
		}
		if len(tried) > len(inflight) && s.registry.liveCount() > 0 {
			for id := range tried {
				if !inflight[id] {
					delete(tried, id)
				}
			}
			return s.registry.owner(key, tried)
		}
		return nil
	}

	ticker := time.NewTicker(dispatchPollInterval)
	defer ticker.Stop()

	for {
		// Keep at least one attempt in flight, waiting out windows where
		// the fleet is momentarily empty (worker restart, coordinator
		// just rebooted and workers have not re-registered yet).
		for len(inflight) == 0 {
			if launched > cellRetries {
				return zero, fmt.Errorf("cell %s: gave up after %d dispatches: %w", key, launched, lastErr)
			}
			w := s.nextLiveWorker(cctx, nextWorker)
			if w == nil {
				if lastErr == nil {
					lastErr = ErrNoWorkers
				}
				return zero, fmt.Errorf("cell %s: %w (deadline: %v)", key, lastErr, cctx.Err())
			}
			if launched > 0 {
				if !s.retryTokens.take() {
					s.svc.RetryBudgetExhausted.Add(1)
					return zero, fmt.Errorf("cell %s: %w after %d dispatches: %v", key, ErrRetryBudgetExhausted, launched, lastErr)
				}
				s.svc.CellsRedispatched.Add(1)
			}
			launch(w)
		}

		select {
		case a := <-resCh:
			delete(inflight, a.w.id)
			if a.err == nil {
				a.w.cellsOK.Add(1)
				return harness.MemoValue{IPC: a.resp.IPC, Stats: a.resp.Stats}, nil
			}
			a.w.cellsFailed.Add(1)
			lastErr = fmt.Errorf("worker %s: %w", a.w.id, a.err)
			if _, crashed := workerCrashes(a.err); crashed {
				if firstCrash != nil {
					// Two distinct dispatches crashed on this cell: that is
					// the request's fault, not a bad node. Redispatching
					// further would just crash more workers. Both crashes
					// stay in the error, so quarantine names both nodes.
					return zero, fmt.Errorf("cell %s crashed two workers: %w; %w", key, firstCrash, lastErr)
				}
				firstCrash = lastErr
			}
			if cctx.Err() != nil {
				return zero, fmt.Errorf("cell %s: %w (last: %v)", key, cctx.Err(), lastErr)
			}
			// Loop: the launch loop above re-dispatches to the next owner.

		case <-ticker.C:
			// Hedge check: every worker running this cell stopped
			// heartbeating (evicted). Launch one extra attempt on a live
			// successor — budget permitting — without abandoning the
			// in-flight one.
			if launched > cellRetries {
				continue
			}
			evicted := true
			for id := range inflight {
				if s.registry.isLive(id) {
					evicted = false
					break
				}
			}
			if !evicted {
				continue
			}
			if w := nextWorker(); w != nil && s.retryTokens.take() {
				s.svc.CellsRedispatched.Add(1)
				launch(w)
			}

		case <-cctx.Done():
			if lastErr == nil {
				lastErr = cctx.Err()
			}
			return zero, fmt.Errorf("cell %s: deadline: %w", key, lastErr)
		}
	}
}

// nextLiveWorker waits (bounded by ctx) until nextWorker yields a
// candidate — covering the window where the whole fleet is re-registering
// after a coordinator restart.
func (s *Server) nextLiveWorker(ctx context.Context, nextWorker func() *workerEntry) *workerEntry {
	for {
		if w := nextWorker(); w != nil {
			return w
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(dispatchPollInterval):
		}
	}
}
