// Package server implements polyserve, a long-running HTTP/JSON
// simulation service over the PolyPath experiment harness.
//
// Jobs (a registered experiment or a custom configuration sweep) are
// submitted to POST /v1/jobs, run FIFO on a bounded worker pool, and
// polled via GET /v1/jobs/{id}, which GET /v1/jobs/{id}/cells follows
// cell by cell; the rendered table — byte-identical to
// cmd/experiments output for the same request — is served by
// GET /v1/results/{id}. Per-cell results are memoized in an LRU keyed by
// the canonical polypath/v2 config hash plus workload identity, so
// resubmitting a sweep replays bit-identical metrics without simulating.
// When the queue is full, submissions are rejected with 429 and a
// Retry-After hint (backpressure). Drain lets in-flight jobs finish and
// journals still-queued jobs to disk for resumption on restart.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/metrics"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// Fleet roles. A standalone node is the original single-process service.
// A coordinator accepts the same /v1 API but executes no simulations
// itself: every cell is dispatched to a registered worker. A worker
// executes cells (POST /v1/cells) on behalf of a coordinator and still
// serves the full standalone API for direct use.
const (
	RoleStandalone  = "standalone"
	RoleCoordinator = "coordinator"
	RoleWorker      = "worker"
)

// Config sizes the service.
type Config struct {
	// Workers is the number of concurrent jobs (default 1: jobs already
	// parallelize across cells internally).
	Workers int
	// QueueCapacity bounds the FIFO backlog (default 16).
	QueueCapacity int
	// CacheCells caps the per-cell memoization LRU (default 4096 entries;
	// 0 disables caching).
	CacheCells int
	// SimParallelism bounds concurrent simulations within one job
	// (0 = GOMAXPROCS).
	SimParallelism int
	// DefaultTimeout caps a job's wall time when the request does not
	// set timeout_sec (0 = no cap).
	DefaultTimeout time.Duration
	// MaxInsts bounds the per-benchmark dynamic length a client may
	// request (0 = unbounded).
	MaxInsts uint64
	// JournalPath is the write-ahead job journal: every admitted job is
	// recorded there until it finishes, and New resumes the jobs it finds
	// pending (empty = no journaling).
	JournalPath string
	// Audit, when not AuditOff, runs every simulation under the pipeline's
	// invariant auditor at the given level. Auditing is excluded from the
	// canonical config hash, so memoized cells stay shared with unaudited
	// runs.
	Audit pipeline.AuditLevel
	// ChaosPanic, when non-empty, makes the worker panic on any job whose
	// title contains the string — a deliberate crash trigger for chaos
	// testing the recover/quarantine path. Never set in production.
	ChaosPanic string
	// Log receives service events (nil = log.Default).
	Log *log.Logger

	// ---- fleet (coordinator/worker mode) ----

	// Role selects the node's fleet role: RoleStandalone (default),
	// RoleCoordinator, or RoleWorker.
	Role string
	// NodeID names this node in fleet APIs, logs, quarantine records, and
	// per-worker metrics (default: the role).
	NodeID string
	// StoreDir mounts the content-addressed result store at the given
	// directory (empty = no store). A local fleet sharing one StoreDir
	// deduplicates cells fleet-wide; a per-node directory is still a
	// restart-durable cache, and the coordinator's copy is the byte-level
	// determinism audit.
	StoreDir string
	// DialWorker connects the coordinator to a registered worker's base
	// URL. Required for RoleCoordinator; internal/client.DialWorker is
	// the production implementation (the indirection avoids an import
	// cycle and lets tests use in-process fakes).
	DialWorker func(addr string) WorkerCaller
	// LeaseTTL is how long a worker lease lives without a heartbeat
	// before eviction (default 3s).
	LeaseTTL time.Duration
	// CellTimeout deadlines one cell's whole dispatch, retries and
	// hedges included (default 2m).
	CellTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.QueueCapacity < 1 {
		c.QueueCapacity = 16
	}
	if c.Log == nil {
		c.Log = log.Default()
	}
	if c.Role == "" {
		c.Role = RoleStandalone
	}
	if c.NodeID == "" {
		c.NodeID = c.Role
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 3 * time.Second
	}
	if c.CellTimeout <= 0 {
		c.CellTimeout = 2 * time.Minute
	}
	return c
}

// Server is the polyserve service. Create with New, mount via Handler,
// shut down with Drain.
type Server struct {
	cfg   Config
	sched *scheduler
	svc   stats.Service
	memo  *harness.LRU[harness.MemoValue]
	quar  *quarantine

	// Observability (see metrics.go): the Prometheus registry behind
	// GET /metrics, plus the histograms runJob feeds directly.
	reg     *metrics.Registry
	jobDur  map[JobState]*metrics.Histogram
	cellDur *metrics.Histogram

	// Scheduler-shard observability (see cellObserver in metrics.go).
	cellsInflight atomic.Int64
	shardMu       sync.Mutex
	shardDur      map[int]*metrics.Histogram
	shardOverflow *metrics.Histogram

	// Fleet state: the shared result store (any role), and the worker
	// registry + dispatch admission control (coordinator only).
	store       *resultStore
	registry    *registry
	retryTokens *tokenBucket
	cellSlots   chan struct{}
	arenas      sync.Pool

	// Write-ahead journal file (see journal.go; nil without JournalPath).
	walMu sync.Mutex
	walF  *os.File

	// Worker-role attachment state, reported by /v1/healthz.
	attachMu    sync.Mutex
	attachState string

	// Per-worker dispatch latency histograms (see metrics.go).
	workerMu       sync.Mutex
	workerDur      map[string]*metrics.Histogram
	workerOverflow *metrics.Histogram

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string // IDs of the finished jobs in jobs, oldest first
	nextID   uint64
}

// maxFinishedJobs is how many finished jobs the server keeps: finishing
// one more forgets the oldest, which then answers 404 on every job route,
// as every finished job does after a restart. Queued and running jobs are
// never forgotten.
const maxFinishedJobs = 1024

// finishedLocked records that j reached a terminal state and forgets the
// oldest finished job past maxFinishedJobs. The caller holds s.mu.
func (s *Server) finishedLocked(j *Job) {
	s.finished = append(s.finished, j.ID)
	if len(s.finished) > maxFinishedJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// New builds a Server and, if cfg.JournalPath names a journal left by a
// previous server, re-enqueues the jobs pending there.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	switch cfg.Role {
	case RoleStandalone, RoleCoordinator, RoleWorker:
	default:
		return nil, fmt.Errorf("server: unknown role %q (valid: %s, %s, %s)", cfg.Role, RoleStandalone, RoleCoordinator, RoleWorker)
	}
	if cfg.Role == RoleCoordinator && cfg.DialWorker == nil {
		return nil, fmt.Errorf("server: coordinator role requires Config.DialWorker")
	}
	s := &Server{cfg: cfg, jobs: make(map[string]*Job)}
	s.quar = newQuarantine(crashThreshold)
	if cfg.CacheCells > 0 {
		s.memo = harness.NewLRU[harness.MemoValue](cfg.CacheCells)
	}
	if cfg.StoreDir != "" {
		st, err := openStore(cfg.StoreDir)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.store = st
	}
	if cfg.Role == RoleCoordinator {
		s.registry = newRegistry(cfg.LeaseTTL, cfg.DialWorker, func(id string) {
			s.svc.WorkersEvicted.Add(1)
			cfg.Log.Printf("polyserve: worker %s evicted (missed heartbeat lease %s)", id, cfg.LeaseTTL)
		})
		s.retryTokens = newTokenBucket()
	}
	// Direct cell executions (POST /v1/cells) run at most GOMAXPROCS at a
	// time; excess calls queue inside their request until a slot frees
	// or the caller's deadline fires.
	s.cellSlots = make(chan struct{}, runtime.GOMAXPROCS(0))
	s.arenas = arenaPool()
	s.sched = newScheduler(cfg.Workers, cfg.QueueCapacity, s.runJob)
	s.initMetrics()
	if cfg.JournalPath != "" {
		n, err := s.loadJournal(cfg.JournalPath)
		if err != nil {
			return nil, fmt.Errorf("server: journal %s: %w", cfg.JournalPath, err)
		}
		if n > 0 {
			cfg.Log.Printf("polyserve: resumed %d journaled job(s) from %s", n, cfg.JournalPath)
		}
	}
	return s, nil
}

func (s *Server) isCoordinator() bool { return s.cfg.Role == RoleCoordinator }

// SetAttachment records a worker's coordinator-attachment state
// ("attached" / "detached"), surfaced by /v1/healthz; cmd/polyserve's
// attachment loop calls it on every transition.
func (s *Server) SetAttachment(state string) {
	s.attachMu.Lock()
	s.attachState = state
	s.attachMu.Unlock()
}

// Attachment returns the worker's coordinator-attachment state.
func (s *Server) Attachment() string {
	s.attachMu.Lock()
	defer s.attachMu.Unlock()
	if s.attachState == "" {
		return "detached"
	}
	return s.attachState
}

// Drain stops accepting jobs, waits for in-flight jobs to finish, and
// syncs and closes the write-ahead journal (if cfg.JournalPath is set).
// Still-queued jobs already have their accept records there, so a
// restarted server picks them up. It returns the number of such jobs.
func (s *Server) Drain() (int, error) {
	left := s.sched.drain()
	if s.registry != nil {
		s.registry.close()
	}
	if s.cfg.JournalPath == "" {
		return 0, nil
	}
	return len(left), s.walClose()
}

// Stats returns a point-in-time service snapshot (the /v1/stats body).
func (s *Server) Stats() Snapshot {
	queued, running := s.sched.depth()
	snap := Snapshot{
		ServiceSnapshot: s.svc.Snapshot(),
		QueueDepth:      queued,
		RunningJobs:     running,
		QueueCapacity:   s.cfg.QueueCapacity,
	}
	if s.memo != nil {
		hits, misses := s.memo.Stats()
		snap.CacheEntries = s.memo.Len()
		snap.CacheHits = hits
		snap.CacheMisses = misses
		if hits+misses > 0 {
			snap.CacheHitRate = float64(hits) / float64(hits+misses)
		}
	}
	snap.Role = s.cfg.Role
	snap.Node = s.cfg.NodeID
	if s.registry != nil {
		snap.WorkersLive = s.registry.liveCount()
	}
	if s.store != nil {
		snap.StoreEntries = s.store.Len()
	}
	return snap
}

// Snapshot is the /v1/stats response body.
type Snapshot struct {
	stats.ServiceSnapshot
	QueueDepth    int     `json:"queue_depth"`
	RunningJobs   int     `json:"running_jobs"`
	QueueCapacity int     `json:"queue_capacity"`
	CacheEntries  int     `json:"cache_entries"`
	CacheHits     uint64  `json:"cache_hits"`
	CacheMisses   uint64  `json:"cache_misses"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	Role          string  `json:"role,omitempty"`
	Node          string  `json:"node,omitempty"`
	WorkersLive   int     `json:"workers_live,omitempty"`
	StoreEntries  int     `json:"store_entries,omitempty"`
}

// Handler mounts the /v1 API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/results/{id}", s.handleResult)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/quarantine", s.handleQuarantine)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/cells", s.handleJobCells)
	mux.HandleFunc("POST /v1/cells", s.handleCellRun)
	mux.HandleFunc("POST /v1/workers", s.handleWorkerRegister)
	mux.HandleFunc("POST /v1/workers/{id}/heartbeat", s.handleWorkerHeartbeat)
	mux.HandleFunc("GET /v1/workers", s.handleWorkers)
	mux.Handle("GET /metrics", s.MetricsHandler())
	return mux
}

// ErrQuarantined is returned by Submit (HTTP 403) for a request whose
// signature has crashed the worker crashThreshold times.
var ErrQuarantined = errors.New("server: request quarantined after repeated worker crashes")

// Submit validates a request and appends it to the job queue, returning
// the new job. Validation failures are *RequestError (HTTP 400); a full
// queue is ErrQueueFull, a draining server ErrDraining, and a
// repeatedly-crashing request ErrQuarantined.
func (s *Server) Submit(req JobRequest) (*Job, error) {
	if s.isCoordinator() && req.Trace {
		return nil, &RequestError{Err: fmt.Errorf("trace is not supported in coordinator mode: cells execute on remote workers and produce no local trace events")}
	}
	configs, err := req.resolve(s.cfg.MaxInsts)
	if err != nil {
		return nil, &RequestError{Err: err}
	}
	if sig, bad := s.quar.check(req); bad {
		s.svc.JobsQuarantined.Add(1)
		return nil, fmt.Errorf("%w (signature %s; see /v1/quarantine)", ErrQuarantined, sig)
	}
	j := &Job{
		State:     JobQueued,
		Request:   req,
		Submitted: time.Now().UTC(),
		configs:   configs,
		cells:     newCellLog(req),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	j.ID = fmt.Sprintf("job-%06d", s.nextID)
	if err := s.sched.submit(j); err != nil {
		if errors.Is(err, ErrQueueFull) {
			s.svc.JobsRejected.Add(1)
		}
		return nil, err
	}
	// runJob and Cancel take s.mu before they can finish the job, so its
	// accept record always precedes its done record in the journal.
	s.jobs[j.ID] = j
	s.walAppend("accept", j)
	s.svc.JobsSubmitted.Add(1)
	return j, nil
}

// RequestError marks a client (HTTP 400) error.
type RequestError struct{ Err error }

func (e *RequestError) Error() string { return e.Err.Error() }
func (e *RequestError) Unwrap() error { return e.Err }

// Job returns a snapshot copy of the job (false if unknown).
func (s *Server) Job(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// Cancel cancels a queued or running job. It returns false when the job
// is unknown and an error when it has already finished.
func (s *Server) Cancel(id string) (bool, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return false, nil
	}
	switch j.State {
	case JobQueued:
		// Pull it out of the FIFO before it starts. If the race is lost
		// (a worker grabbed it between checks), fall through to the
		// running case on the next attempt by the client.
		if s.sched.remove(j) {
			now := time.Now().UTC()
			j.State = JobCancelled
			j.Finished = &now
			s.svc.JobsCancelled.Add(1)
			s.finishedLocked(j)
			s.mu.Unlock()
			s.walAppend("done", j)
			return true, nil
		}
		s.mu.Unlock()
		return true, fmt.Errorf("job %s is starting; retry cancellation", id)
	case JobRunning:
		cancel := j.cancel
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return true, nil
	default:
		s.mu.Unlock()
		return true, fmt.Errorf("job %s already %s", id, j.State)
	}
}

// runJob executes one job on a scheduler worker.
func (s *Server) runJob(j *Job) {
	ctx := context.Background()
	timeout := s.cfg.DefaultTimeout
	if j.Request.TimeoutSec > 0 {
		timeout = time.Duration(j.Request.TimeoutSec) * time.Second
	}
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	now := time.Now().UTC()
	s.mu.Lock()
	j.State = JobRunning
	j.Started = &now
	j.cancel = cancel
	s.mu.Unlock()

	opts := harness.Options{
		TargetInsts: j.Request.Insts,
		Benchmarks:  j.Request.Benchmarks,
		Extra:       j.Request.extra(),
		Replicates:  j.Request.Replicates,
		Parallelism: s.cfg.SimParallelism,
		Context:     ctx,
		Memo:        s.cellMemo(),
		Observer:    cellObserver{s},
		OnCell: func(ev harness.CellEvent) {
			j.cells.add(ev)
			if ev.FromCache {
				s.svc.CellsFromCache.Add(1)
			} else {
				s.svc.CellsSimulated.Add(1)
				s.svc.SimInsts.Add(ev.Committed)
				s.svc.SimNanos.Add(int64(ev.Elapsed))
				s.cellDur.Observe(ev.Elapsed.Seconds())
			}
		},
	}
	if s.isCoordinator() {
		// Coordinator: every cell the memo misses becomes one remote
		// dispatch (dispatch.go).
		opts.Exec = s.execRemote
		if s.cfg.SimParallelism == 0 {
			// Dispatch is network-bound, not CPU-bound: fan out wider than
			// GOMAXPROCS so a small coordinator keeps a larger fleet busy.
			opts.Parallelism = 4 * runtime.GOMAXPROCS(0)
		}
	}
	if s.cfg.Audit != pipeline.AuditOff {
		opts.Audit = s.cfg.Audit
	}
	if j.Request.Trace {
		// Per-cell ring capacity: the client's trace_limit, bounded by the
		// whole-job budget (which also caps total retention).
		perCell := j.Request.TraceLimit
		if perCell <= 0 || perCell > jobTraceBudget {
			perCell = jobTraceBudget
		}
		tr := newJobTrace()
		s.mu.Lock()
		j.trace = tr
		s.mu.Unlock()
		opts.TraceLimit = perCell
		opts.OnTrace = tr.add
	}

	text, err, crashed := s.renderContained(j, opts)
	crashNodes := []string{s.cfg.NodeID}
	var mce *pipeline.MachineCheckError
	if errors.As(err, &mce) {
		// A machine check escaping the simulator is a contained crash just
		// like a worker panic: the request corrupted (or exposed corruption
		// in) simulator state and counts against its quarantine budget.
		crashed = true
		s.svc.WorkerPanics.Add(1)
	}
	if nodes, ok := workerCrashes(err); ok {
		// Remote workers crashed executing one of this job's cells: the
		// request counts against quarantine here too, attributed to every
		// worker node that observed a crash (each worker already counted
		// its own panic; only attribution happens coordinator-side).
		crashed = true
		if len(nodes) > 0 {
			crashNodes = nodes
		}
	}

	finished := time.Now().UTC()
	if crashed {
		sig, quarantinedNow := s.quar.recordCrash(j.Request, j.describe(), err.Error(), crashNodes, finished)
		if quarantinedNow {
			s.cfg.Log.Printf("polyserve: quarantined request signature %s after %d crashes (%s, nodes %s)", sig, crashThreshold, j.describe(), strings.Join(crashNodes, ", "))
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j.Finished = &finished
	j.cancel = nil
	switch {
	case err == nil:
		j.State = JobDone
		j.Result = &JobResult{Text: text}
		j.cells.result(j.Result)
		s.svc.JobsCompleted.Add(1)
	case errors.Is(err, context.Canceled):
		j.State = JobCancelled
		j.Error = "cancelled"
		s.svc.JobsCancelled.Add(1)
	default:
		j.State = JobFailed
		j.Error = err.Error()
		s.svc.JobsFailed.Add(1)
	}
	s.observeJobDuration(j.State, finished.Sub(now))
	s.finishedLocked(j)
	s.walAppend("done", j)
	s.cfg.Log.Printf("polyserve: %s %s (%s) in %s", j.ID, j.State, j.describe(), finished.Sub(now).Round(time.Millisecond))
}

// renderContained runs the job's simulation with the worker protected by a
// recover barrier: a panicking worker fails its job instead of killing the
// process, keeping one poisoned request from taking the service down. The
// crashed result reports whether a panic was contained.
func (s *Server) renderContained(j *Job, opts harness.Options) (text string, err error, crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			s.svc.WorkerPanics.Add(1)
			crashed = true
			err = fmt.Errorf("worker panic: %v", r)
			s.cfg.Log.Printf("polyserve: %s worker panic contained: %v\n%s", j.ID, r, debug.Stack())
		}
	}()
	if s.cfg.ChaosPanic != "" && strings.Contains(j.Request.Title, s.cfg.ChaosPanic) {
		panic("chaos: deliberate worker panic (title contains " + strconv.Quote(s.cfg.ChaosPanic) + ")")
	}
	text, err = s.render(j, opts)
	return text, err, false
}

func (j *Job) describe() string {
	if j.Request.Experiment != "" {
		return "experiment " + j.Request.Experiment
	}
	return fmt.Sprintf("sweep of %d config(s)", len(j.Request.Configs))
}

// render produces the job's table text, byte-identical to what
// cmd/experiments prints (sans the "=== name (Xs) ===" header) for the
// same experiment and options.
func (s *Server) render(j *Job, opts harness.Options) (string, error) {
	if j.Request.Experiment != "" {
		r, err := harness.RunExperiment(j.Request.Experiment, opts)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}
	m, err := harness.RunConfigs(opts, j.configs)
	if err != nil {
		return "", err
	}
	return harness.RenderTable(j.Request.title(), m), nil
}

// ---- HTTP layer ----

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// maxRequestBody caps a request body: decodeBody refuses a longer one.
const maxRequestBody = 1 << 20

// EncodeRequest encodes v as a request body: JSON without HTML escaping.
// json.Marshal writes each <, > and & as a six-byte escape, so a request
// the server accepts could grow past maxRequestBody on its way back.
func EncodeRequest(v any) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(b.Bytes(), []byte("\n")), nil
}

// decodeBody strictly decodes a bounded JSON request body into v,
// writing the error itself on failure (returns false): 413 for a body
// longer than maxRequestBody, 400 for anything else. Only whitespace may
// follow the value: dec.More would let a stray "}" or "]" through, so the
// next token must be io.EOF.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBody+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	if len(body) > maxRequestBody {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds the %d-byte cap", maxRequestBody))
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return false
	}
	if _, err := dec.Token(); err != io.EOF {
		writeError(w, http.StatusBadRequest, errors.New("invalid request body: trailing data after the JSON value"))
		return false
	}
	return true
}

// writeSubmitError maps a Submit error to its HTTP status.
func writeSubmitError(w http.ResponseWriter, err error, queueCapacity int) {
	var reqErr *RequestError
	var cfgErr *pipeline.ConfigError
	switch {
	case errors.As(err, &cfgErr), errors.As(err, &reqErr):
		writeError(w, http.StatusBadRequest, err)
	case errors.Is(err, ErrQueueFull):
		// Backpressure: tell the client when to come back. The hint
		// scales with the backlog; precision is not required.
		w.Header().Set("Retry-After", strconv.Itoa(2*queueCapacity))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrQuarantined):
		writeError(w, http.StatusForbidden, err)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !decodeBody(w, r, &req) {
		return
	}
	j, err := s.Submit(req)
	if err != nil {
		writeSubmitError(w, err, s.cfg.QueueCapacity)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	snap, _ := s.Job(j.ID)
	writeJSON(w, http.StatusAccepted, snap)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	list := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		list = append(list, *j)
	}
	s.mu.Unlock()
	sort.Slice(list, func(i, k int) bool { return list[i].ID < list[k].ID })
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ok, err := s.Cancel(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	j, _ := s.Job(id)
	writeJSON(w, http.StatusOK, j)
}

// handleResult serves a job's result by state: 200 with the JobResult
// when done, 410 when failed/cancelled, 202 + Retry-After otherwise.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var state JobState
	var res *JobResult
	var jobErr string
	if ok {
		state, res, jobErr = j.State, j.Result, j.Error
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	switch state {
	case JobDone:
		writeJSON(w, http.StatusOK, res)
	case JobFailed, JobCancelled:
		writeError(w, http.StatusGone, fmt.Errorf("job %s %s: %s", id, state, jobErr))
	default:
		// Not finished yet: poll again shortly.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusAccepted, fmt.Errorf("job %s is %s", id, state))
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]string{
		"status":  "ok",
		"version": obs.Version(),
		"role":    s.cfg.Role,
		"node":    s.cfg.NodeID,
	}
	switch s.cfg.Role {
	case RoleWorker:
		body["coordinator"] = s.Attachment()
	case RoleCoordinator:
		body["workers_live"] = strconv.Itoa(s.registry.liveCount())
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleQuarantine(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.quar.list())
}

// ---- fleet HTTP: worker registration and membership ----

// WorkerRegistration is the body of POST /v1/workers.
type WorkerRegistration struct {
	// ID is the worker's stable node identity; re-registering under the
	// same ID after a restart reclaims the old ring position.
	ID string `json:"id"`
	// Addr is the worker's reachable base URL (e.g. "http://10.0.0.7:8081").
	Addr string `json:"addr"`
}

// WorkerLease is the response to registration and heartbeats.
type WorkerLease struct {
	// LeaseMS is how long the lease lives without a heartbeat; workers
	// should beat at a small fraction of it.
	LeaseMS int64 `json:"lease_ms"`
	// Coordinator is the coordinator's node ID.
	Coordinator string `json:"coordinator"`
}

// FleetStatus is the GET /v1/workers response.
type FleetStatus struct {
	Coordinator  string         `json:"coordinator"`
	WorkersLive  int            `json:"workers_live"`
	Workers      []WorkerStatus `json:"workers"`
	StoreEntries int            `json:"store_entries,omitempty"`
}

// requireCoordinator gates the fleet-membership endpoints.
func (s *Server) requireCoordinator(w http.ResponseWriter) bool {
	if !s.isCoordinator() {
		writeError(w, http.StatusConflict, fmt.Errorf("node %s has role %s; fleet membership lives on the coordinator", s.cfg.NodeID, s.cfg.Role))
		return false
	}
	return true
}

func (s *Server) handleWorkerRegister(w http.ResponseWriter, r *http.Request) {
	if !s.requireCoordinator(w) {
		return
	}
	var req WorkerRegistration
	if !decodeBody(w, r, &req) {
		return
	}
	ttl, err := s.registry.register(req.ID, req.Addr)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.cfg.Log.Printf("polyserve: worker %s registered at %s (lease %s)", req.ID, req.Addr, ttl)
	writeJSON(w, http.StatusOK, WorkerLease{LeaseMS: ttl.Milliseconds(), Coordinator: s.cfg.NodeID})
}

func (s *Server) handleWorkerHeartbeat(w http.ResponseWriter, r *http.Request) {
	if !s.requireCoordinator(w) {
		return
	}
	id := r.PathValue("id")
	if !s.registry.beat(id) {
		// The coordinator restarted (empty registry) or evicted this
		// worker long enough ago to forget it; either way the worker must
		// re-register to resume.
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown worker %q: re-register", id))
		return
	}
	writeJSON(w, http.StatusOK, WorkerLease{LeaseMS: s.cfg.LeaseTTL.Milliseconds(), Coordinator: s.cfg.NodeID})
}

func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	if !s.requireCoordinator(w) {
		return
	}
	st := FleetStatus{
		Coordinator: s.cfg.NodeID,
		WorkersLive: s.registry.liveCount(),
		Workers:     s.registry.snapshot(),
	}
	if s.store != nil {
		st.StoreEntries = s.store.Len()
	}
	if st.Workers == nil {
		st.Workers = []WorkerStatus{}
	}
	writeJSON(w, http.StatusOK, st)
}
