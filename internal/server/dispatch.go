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
//     (this sweep, a previous sweep, a previous coordinator incarnation)
//     is served from the content-addressed store without dispatch.
//   - Consistent-hash ownership: the cell's content address picks its
//     worker, so each worker's local memo cache stays hot across sweeps.
//   - Per-cell deadline (Config.CellTimeout) on the whole dispatch
//     including retries and hedges.
//   - Failure → walk the ring successors, never re-trying a worker that
//     already failed this cell in this round; when every live worker has
//     failed it once, the round resets (workers restart under stable IDs,
//     so a comeback deserves a fresh chance).
//   - Every launch after the first consumes a token from the bounded
//     retry budget — a flapping worker degrades throughput but cannot
//     amplify one cell into unbounded fleet load.
//   - Hedged re-dispatch: if the owning worker stops heartbeating while
//     our call is in flight (SIGKILL, wedge, partition), or the optional
//     HedgeDelay elapses, a second attempt launches on the next live
//     successor; first success wins, the loser's response is discarded.
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

// retryRefillPerSec is the rate at which the retry budget refills.
const retryRefillPerSec = 64

// tokenBucket is the coordinator-wide retry budget: burst tokens,
// refilled continuously at retryRefillPerSec. take is non-blocking.
type tokenBucket struct {
	mu     sync.Mutex
	tokens float64
	burst  float64
	last   time.Time
}

func newTokenBucket(burst int) *tokenBucket {
	return &tokenBucket{tokens: float64(burst), burst: float64(burst), last: time.Now()}
}

func (b *tokenBucket) take() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	b.tokens += now.Sub(b.last).Seconds() * retryRefillPerSec
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// encodedConfig caches the polypath/v2 wire encoding per canonical hash,
// so a 10k-cell sweep encodes each distinct config once, not per cell.
func (s *Server) encodedConfig(cfg pipeline.Config, hash string) ([]byte, error) {
	s.encMu.Lock()
	if blob, ok := s.encCfg[hash]; ok {
		s.encMu.Unlock()
		return blob, nil
	}
	s.encMu.Unlock()
	blob, err := pipeline.EncodeConfigV2(cfg)
	if err != nil {
		return nil, err
	}
	s.encMu.Lock()
	if s.encCfg == nil {
		s.encCfg = make(map[string][]byte)
	}
	s.encCfg[hash] = blob
	s.encMu.Unlock()
	return blob, nil
}

// dispatchPollInterval paces the waiting loops: how often an idle
// dispatch re-checks fleet membership, and how often an in-flight
// dispatch re-evaluates its hedge conditions.
const dispatchPollInterval = 100 * time.Millisecond

// execRemote runs one cell on the worker fleet (the coordinator's
// harness Options.Exec).
func (s *Server) execRemote(ctx context.Context, cell harness.CellSpec) (harness.MemoValue, error) {
	var zero harness.MemoValue
	key := harness.CellKey(cell.Spec, cell.ConfigHash)
	if s.store != nil {
		if v, ok := s.store.Get(key); ok {
			s.svc.StoreHits.Add(1)
			return v, nil
		}
	}
	blob, err := s.encodedConfig(cell.Config, cell.ConfigHash)
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
	resCh := make(chan attempt, s.cfg.CellRetries+4)
	tried := make(map[string]bool)    // failed or launched this round
	inflight := make(map[string]bool) // launched, no result yet
	launched := 0
	crashes := 0
	var crashNode string
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

	var hedgeAt time.Time
	if s.cfg.HedgeDelay > 0 {
		hedgeAt = time.Now().Add(s.cfg.HedgeDelay)
	}
	ticker := time.NewTicker(dispatchPollInterval)
	defer ticker.Stop()

	for {
		// Keep at least one attempt in flight, waiting out windows where
		// the fleet is momentarily empty (worker restart, coordinator
		// just rebooted and workers have not re-registered yet).
		for len(inflight) == 0 {
			if launched > s.cfg.CellRetries {
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
				v := harness.MemoValue{IPC: a.resp.IPC, Stats: a.resp.Stats}
				if s.store != nil {
					if conflict, err := s.store.Put(key, v); err != nil {
						s.cfg.Log.Printf("polyserve: store put %s: %v", key, err)
					} else if conflict {
						s.svc.StoreConflicts.Add(1)
						s.cfg.Log.Printf("polyserve: DETERMINISM VIOLATION: store conflict on %s from worker %s", key, a.w.id)
					} else {
						s.svc.StorePuts.Add(1)
					}
				}
				return v, nil
			}
			a.w.cellsFailed.Add(1)
			lastErr = fmt.Errorf("worker %s: %w", a.w.id, a.err)
			if node, ok := IsWorkerCrash(a.err); ok {
				crashes++
				crashNode = node
				if crashNode == "" {
					crashNode = a.w.id
				}
				if crashes >= 2 {
					// Two distinct dispatches crashed on this cell: that is
					// the request's fault, not a bad node. Redispatching
					// further would just crash more workers.
					return zero, fmt.Errorf("cell %s crashed %d workers (last: %s): %w", key, crashes, crashNode, a.err)
				}
			}
			if cctx.Err() != nil {
				return zero, fmt.Errorf("cell %s: %w (last: %v)", key, cctx.Err(), lastErr)
			}
			// Loop: the launch loop above re-dispatches to the next owner.

		case <-ticker.C:
			// Hedge check: the only worker(s) running this cell stopped
			// heartbeating (evicted), or the configured hedge delay
			// elapsed. Launch one extra attempt on a live successor —
			// budget permitting — without abandoning the in-flight one.
			if len(inflight) == 0 {
				continue
			}
			evicted := true
			for id := range inflight {
				if s.registry.isLive(id) {
					evicted = false
					break
				}
			}
			hedge := evicted || (!hedgeAt.IsZero() && time.Now().After(hedgeAt))
			if !hedge || launched > s.cfg.CellRetries {
				continue
			}
			if w := nextWorker(); w != nil && s.retryTokens.take() {
				s.svc.CellsRedispatched.Add(1)
				launch(w)
				hedgeAt = time.Time{} // one time-based hedge per cell
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
