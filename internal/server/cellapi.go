package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/workload"
)

// cellapi.go is the worker side of the fleet protocol: POST /v1/cells
// executes exactly one (benchmark, config, replicate) cell and returns
// its result. The request carries the cell's full identity — workload
// name, absolute seed, resolved instruction count, and the encoded
// configuration plus its canonical hash — so any worker can regenerate
// the program deterministically and produce the bit-identical MemoValue
// a local run would. Re-execution is therefore idempotent by
// construction, which is what makes the coordinator's redispatch-on-
// failure safe.

// Fleet protocol headers. Every /v1/cells response names the node that
// produced it; contained crashes additionally carry a crash kind so the
// coordinator can attribute the crash to the worker in its quarantine
// records ("bad config" vs "bad node" triage).
const (
	HeaderNode  = "X-Polyserve-Node"
	HeaderCrash = "X-Polyserve-Crash"
)

// CellRequest is the body of POST /v1/cells.
type CellRequest struct {
	Benchmark string `json:"benchmark"`
	// Seed is the absolute workload seed (replicate offset already
	// applied by the coordinator).
	Seed int64 `json:"seed"`
	// Insts is the resolved dynamic instruction count (never 0).
	Insts     uint64 `json:"insts"`
	Replicate int    `json:"replicate,omitempty"`
	// Config is the polypath-encoded configuration document.
	Config json.RawMessage `json:"config"`
	// ConfigHash is the coordinator's canonical hash of Config; the worker
	// recomputes and cross-checks it to catch wire or encoding drift
	// before it can poison the shared result store.
	ConfigHash string `json:"config_hash"`
	// Audit, when non-empty, runs the cell under the named invariant-audit
	// level (results are bit-identical with auditing on or off).
	Audit string `json:"audit,omitempty"`
	// Spec inlines the full workload spec for job-scoped workloads
	// (trace-derived stand-ins) that no worker can resolve by name. When
	// present its Name must equal Benchmark; when absent the worker
	// resolves Benchmark through the registry as before.
	Spec *workload.Spec `json:"spec,omitempty"`
}

// CellResponse is the 200 body of POST /v1/cells.
type CellResponse struct {
	IPC   float64   `json:"ipc"`
	Stats stats.Sim `json:"stats"`
	// Node is the executing worker's node ID.
	Node string `json:"node"`
	// ElapsedMS is the worker-side wall time of this execution.
	ElapsedMS int64 `json:"elapsed_ms"`
}

// CellCallError is a failed remote cell execution, carrying enough for
// the coordinator to attribute the failure: the worker's self-reported
// node ID (when the HTTP exchange got far enough to learn it) and
// whether the worker contained a crash (panic or machine check) running
// the cell.
type CellCallError struct {
	Node   string // worker node ID ("" if the transport failed first)
	Crash  bool   // the worker crashed executing this cell (contained)
	Status int    // HTTP status (0 for transport errors)
	Msg    string
	Err    error // underlying transport error, if any
}

func (e *CellCallError) Error() string {
	where := e.Node
	if where == "" {
		where = "worker"
	}
	if e.Err != nil {
		return fmt.Sprintf("cell call to %s: %v", where, e.Err)
	}
	kind := ""
	if e.Crash {
		kind = " (worker crash)"
	}
	return fmt.Sprintf("cell call to %s: HTTP %d%s: %s", where, e.Status, kind, e.Msg)
}

func (e *CellCallError) Unwrap() error { return e.Err }

// workerCrashes reports whether err holds a remote cell execution that
// crashed its worker (contained panic or machine check), and names the
// self-reported node of every such execution in err's tree, in order.
func workerCrashes(err error) (nodes []string, crashed bool) {
	switch e := err.(type) {
	case *CellCallError:
		if e.Crash && e.Node != "" {
			nodes = append(nodes, e.Node)
		}
		return nodes, e.Crash
	case interface{ Unwrap() []error }:
		for _, inner := range e.Unwrap() {
			n, c := workerCrashes(inner)
			nodes, crashed = append(nodes, n...), crashed || c
		}
		return nodes, crashed
	case interface{ Unwrap() error }:
		return workerCrashes(e.Unwrap())
	}
	return nil, false
}

// WorkerCaller is the coordinator's transport to one worker node.
// internal/client implements it over HTTP (client.DialWorker); tests may
// substitute in-process fakes. RunCell errors should be (or wrap)
// *CellCallError so dispatch can attribute crashes.
type WorkerCaller interface {
	RunCell(ctx context.Context, req CellRequest) (CellResponse, error)
}

// cellSlot bounds concurrent cell simulations on this node (workers get
// one independent HTTP request per cell, so the HTTP layer provides no
// backpressure of its own). Blocking here, rather than failing with 429,
// lets the coordinator's per-cell deadline govern queueing delay.
func (s *Server) acquireCellSlot(ctx context.Context) error {
	select {
	case s.cellSlots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) releaseCellSlot() { <-s.cellSlots }

// handleCellRun executes one cell (POST /v1/cells).
func (s *Server) handleCellRun(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(HeaderNode, s.cfg.NodeID)
	if s.isCoordinator() {
		writeError(w, http.StatusConflict, fmt.Errorf("node %s is a coordinator; it does not execute cells", s.cfg.NodeID))
		return
	}
	var req CellRequest
	if !decodeBody(w, r, &req) {
		return
	}
	start := time.Now()
	resp, err, crashKind := s.runCellContained(r.Context(), req)
	if err != nil {
		code := http.StatusBadRequest
		var mce *pipeline.MachineCheckError
		if errors.As(err, &mce) {
			crashKind = "machine-check"
		}
		if crashKind != "" {
			// A contained crash is the worker's fault surface, not the
			// client's: 500 + the crash header for coordinator attribution.
			code = http.StatusInternalServerError
			w.Header().Set(HeaderCrash, crashKind)
			s.svc.WorkerPanics.Add(1)
		} else if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The coordinator gave up (deadline, hedge winner elsewhere) and
			// closed the request; the status is for the log only.
			code = http.StatusRequestTimeout
		}
		writeError(w, code, err)
		return
	}
	resp.Node = s.cfg.NodeID
	resp.ElapsedMS = time.Since(start).Milliseconds()
	writeJSON(w, http.StatusOK, resp)
}

// runCellContained validates, executes, and memoizes one cell with the
// same recover barrier as job execution: a poisoned cell fails its call,
// never the worker process.
func (s *Server) runCellContained(ctx context.Context, req CellRequest) (resp CellResponse, err error, crashKind string) {
	defer func() {
		if r := recover(); r != nil {
			crashKind = "panic"
			err = fmt.Errorf("worker panic: %v", r)
			s.cfg.Log.Printf("polyserve: cell %s/%d panic contained: %v\n%s", req.Benchmark, req.Replicate, r, debug.Stack())
		}
	}()

	spec, cfg, key, err := s.checkCell(req)
	if err != nil {
		return resp, err, ""
	}
	memo := s.cellMemo()
	if memo != nil {
		if v, ok := memo.Get(key); ok {
			s.svc.CellsFromCache.Add(1)
			return CellResponse{IPC: v.IPC, Stats: v.Stats}, nil, ""
		}
	}

	if err := s.acquireCellSlot(ctx); err != nil {
		return resp, err, ""
	}
	defer s.releaseCellSlot()

	prog, err := workload.Generate(spec)
	if err != nil {
		return resp, err, ""
	}
	arena := s.arenas.Get().(*pipeline.Arena)
	defer s.arenas.Put(arena)
	start := time.Now()
	res, err := core.RunCell(ctx, prog, cfg, nil, arena)
	if err != nil {
		return resp, err, ""
	}
	s.svc.CellsSimulated.Add(1)
	s.svc.SimInsts.Add(res.Stats.Committed)
	s.svc.SimNanos.Add(int64(time.Since(start)))
	s.cellDur.Observe(time.Since(start).Seconds())

	v := harness.MemoValue{IPC: res.IPC, Stats: res.Stats}
	if memo != nil {
		memo.Put(key, v)
	}
	return CellResponse{IPC: v.IPC, Stats: v.Stats}, nil, ""
}

// checkCell runs every check a cell request must pass before it may read
// the memo or the store, so a bad request is refused the same way whether
// or not its cell is cached. It returns the cell's workload spec, its
// config carrying the requested (or the node's) audit level, and its memo
// key. Every error is a client error.
func (s *Server) checkCell(req CellRequest) (spec workload.Spec, cfg pipeline.Config, key string, err error) {
	if req.Benchmark == "" || len(req.Config) == 0 {
		return spec, cfg, "", fmt.Errorf("cell request needs benchmark and config")
	}
	if s.cfg.MaxInsts > 0 && req.Insts > s.cfg.MaxInsts {
		return spec, cfg, "", fmt.Errorf("insts %d exceeds the node cap %d", req.Insts, s.cfg.MaxInsts)
	}
	if req.Spec != nil {
		if req.Spec.Name != req.Benchmark {
			return spec, cfg, "", fmt.Errorf("inline spec name %q does not match benchmark %q", req.Spec.Name, req.Benchmark)
		}
		spec = *req.Spec
		if spec.TargetInsts == 0 {
			spec.TargetInsts = req.Insts
		}
		if err := workload.CheckSpec(spec); err != nil {
			return spec, cfg, "", err
		}
	} else {
		bm, err := workload.ByName(req.Benchmark, req.Insts)
		if err != nil {
			return spec, cfg, "", err
		}
		spec = bm.Spec
	}
	spec.Seed = req.Seed
	if req.Insts > 0 {
		spec.TargetInsts = req.Insts
	}
	if cfg, err = pipeline.DecodeConfig(req.Config); err != nil {
		return spec, cfg, "", err
	}
	hash, err := pipeline.CanonicalHash(cfg)
	if err != nil {
		return spec, cfg, "", err
	}
	if req.ConfigHash != "" && hash != req.ConfigHash {
		return spec, cfg, "", fmt.Errorf("config hash mismatch: coordinator sent %s, decoded document hashes to %s", req.ConfigHash, hash)
	}
	// The audit level is applied after hashing: results are bit-identical
	// with auditing on or off, so the requested level is not in the key.
	if req.Audit != "" {
		lvl, err := pipeline.ParseAuditLevel(req.Audit)
		if err != nil {
			return spec, cfg, "", err
		}
		cfg.Audit = lvl
	} else if s.cfg.Audit != pipeline.AuditOff {
		cfg.Audit = s.cfg.Audit
	}
	return spec, cfg, harness.CellKey(spec, hash), nil
}

// cellMemo returns the node's memo tier stack, the one every role's jobs
// and direct cell executions read and write: the shared result store
// under the in-memory LRU when a store is mounted, the LRU alone
// otherwise, nil with caching fully disabled.
func (s *Server) cellMemo() harness.Memo {
	if s.store != nil {
		return tieredMemo{s}
	}
	if s.memo != nil {
		return s.memo
	}
	return nil
}

// arenaPool builds the lazy per-node arena pool for direct cell execution.
func arenaPool() sync.Pool {
	return sync.Pool{New: func() any { return pipeline.NewArena() }}
}
