package server

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/workload"
)

// POST /v1/sweeps is the batch front door to the sharded experiment
// engine: one request fans a configuration sweep into its (benchmark,
// config, replicate) cells, runs them on internal/sched with the
// requested parallelism, and exposes per-cell completions while the
// sweep is still running. A sweep is executed by an ordinary job on the
// same scheduler — it shares the FIFO, the memo cache, cancellation
// (DELETE /v1/jobs/{job_id}), quarantine, and the rendered-table result
// — so every durability property of jobs carries over. The one
// intentional degradation: a sweep drained to the journal resumes as a
// plain job (the journal records only the JobRequest), because the
// sweep's live cell stream is meaningless across a restart.

// SweepRequest is the submission body for POST /v1/sweeps: a custom
// configuration sweep (no experiment indirection) plus the shard count.
type SweepRequest struct {
	// Title overrides the rendered table title.
	Title string `json:"title,omitempty"`
	// Configs lists the configurations of the sweep (required).
	Configs []ConfigEntry `json:"configs"`
	// Insts is the dynamic instruction count per benchmark run
	// (0 = the default 400k).
	Insts uint64 `json:"insts,omitempty"`
	// Benchmarks restricts the suite (empty = all eight plus any
	// Workloads entries).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Workloads carries inline workload specs scoped to this sweep (see
	// JobRequest.Workloads) — how a trace-derived stand-in is swept across
	// the fleet.
	Workloads []workload.Spec `json:"workloads,omitempty"`
	// Replicates averages extra workload seeds per cell (0/1 = single).
	Replicates int `json:"replicates,omitempty"`
	// TimeoutSec caps the sweep's wall time (0 = server default).
	TimeoutSec int `json:"timeout_sec,omitempty"`
	// Parallelism is the worker (shard) count cells run under
	// (0 = server default, then GOMAXPROCS). Results are bit-identical
	// under any value; only wall time changes.
	Parallelism int `json:"parallelism,omitempty"`
}

// SweepCell is one completed cell in the /v1/sweeps/{id}/cells stream.
// Seq is the 1-based completion order (schedule-dependent); ID is the
// stable harness.CellID (schedule-independent).
type SweepCell struct {
	Seq       int     `json:"seq"`
	ID        string  `json:"id"`
	Benchmark string  `json:"benchmark"`
	Config    string  `json:"config"`
	Replicate int     `json:"replicate"`
	FromCache bool    `json:"from_cache"`
	Shard     int     `json:"shard"`
	IPC       float64 `json:"ipc"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// Sweep is the public snapshot of a sweep: identity, the lifecycle state
// of its executing job, and live cell progress.
type Sweep struct {
	ID          string       `json:"id"`
	JobID       string       `json:"job_id"`
	State       JobState     `json:"state"`
	Request     SweepRequest `json:"request"`
	Submitted   time.Time    `json:"submitted_at"`
	Started     *time.Time   `json:"started_at,omitempty"`
	Finished    *time.Time   `json:"finished_at,omitempty"`
	Error       string       `json:"error,omitempty"`
	Parallelism int          `json:"parallelism"` // resolved shard count
	TotalCells  int          `json:"total_cells"`
	DoneCells   int          `json:"done_cells"`
	CachedCells int          `json:"cached_cells"`
}

// sweepRec is the server-side sweep state. Identity fields are immutable
// after SubmitSweepAs; the cell log is guarded by its own mutex because
// appends arrive from harness worker goroutines.
type sweepRec struct {
	id          string
	jobID       string
	req         SweepRequest
	submitted   time.Time
	total       int
	parallelism int

	mu     sync.Mutex
	cells  []SweepCell
	cached int
}

// addCell appends one completed cell (called from OnCell on worker
// goroutines, concurrently).
func (r *sweepRec) addCell(ev harness.CellEvent) {
	c := SweepCell{
		ID:        harness.CellID(ev.Benchmark, ev.Config, ev.Replicate),
		Benchmark: ev.Benchmark,
		Config:    ev.Config,
		Replicate: ev.Replicate,
		FromCache: ev.FromCache,
		Shard:     ev.Shard,
		IPC:       ev.IPC,
		ElapsedMS: float64(ev.Elapsed.Nanoseconds()) / 1e6,
	}
	r.mu.Lock()
	c.Seq = len(r.cells) + 1
	r.cells = append(r.cells, c)
	if ev.FromCache {
		r.cached++
	}
	r.mu.Unlock()
}

// cellsAfter returns the cells with Seq > after, plus the current done
// count — the poll-based streaming read behind /v1/sweeps/{id}/cells.
func (r *sweepRec) cellsAfter(after int) (page []SweepCell, done int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if after < 0 {
		after = 0
	}
	if after < len(r.cells) {
		page = append(page, r.cells[after:]...)
	}
	return page, len(r.cells)
}

// jobRequest converts the sweep into the job that executes it.
func (r SweepRequest) jobRequest() JobRequest {
	return JobRequest{
		Configs:    r.Configs,
		Title:      r.Title,
		Insts:      r.Insts,
		Benchmarks: r.Benchmarks,
		Workloads:  r.Workloads,
		Replicates: r.Replicates,
		TimeoutSec: r.TimeoutSec,
	}
}

// SubmitSweepAs validates a sweep, enqueues its executing job under the
// named fair-queuing tenant, and returns the sweep snapshot. Error
// mapping is identical to SubmitAs.
func (s *Server) SubmitSweepAs(req SweepRequest, tenant string) (Sweep, error) {
	if len(req.Configs) == 0 {
		return Sweep{}, &RequestError{Err: fmt.Errorf("sweep must list at least one entry in \"configs\"")}
	}
	if req.Parallelism < 0 || req.Parallelism > 64 {
		return Sweep{}, &RequestError{Err: fmt.Errorf("parallelism %d out of [0,64]", req.Parallelism)}
	}
	benches := len(req.Benchmarks)
	if benches == 0 {
		// An unrestricted sweep runs the Table 1 suite plus every inline
		// workload.
		benches = len(workload.Names()) + len(req.Workloads)
	}
	reps := req.Replicates
	if reps < 2 {
		reps = 1
	}
	par := req.Parallelism
	if par == 0 {
		par = s.cfg.SimParallelism
	}
	if par == 0 {
		par = runtime.GOMAXPROCS(0)
	}
	rec := &sweepRec{
		req:         req,
		submitted:   time.Now().UTC(),
		total:       benches * len(req.Configs) * reps,
		parallelism: par,
	}
	j, err := s.submit(req.jobRequest(), tenant, rec)
	if err != nil {
		return Sweep{}, err
	}
	rec.jobID = j.ID
	s.mu.Lock()
	s.nextSweep++
	rec.id = fmt.Sprintf("sweep-%06d", s.nextSweep)
	s.sweeps[rec.id] = rec
	s.mu.Unlock()
	s.svc.SweepsSubmitted.Add(1)
	return s.sweepSnapshot(rec), nil
}

// sweepSnapshot assembles the public view: job lifecycle plus cell log.
func (s *Server) sweepSnapshot(rec *sweepRec) Sweep {
	j, _ := s.Job(rec.jobID)
	rec.mu.Lock()
	done, cached := len(rec.cells), rec.cached
	rec.mu.Unlock()
	state := j.State
	if state == "" {
		state = JobQueued
	}
	return Sweep{
		ID:          rec.id,
		JobID:       rec.jobID,
		State:       state,
		Request:     rec.req,
		Submitted:   rec.submitted,
		Started:     j.Started,
		Finished:    j.Finished,
		Error:       j.Error,
		Parallelism: rec.parallelism,
		TotalCells:  rec.total,
		DoneCells:   done,
		CachedCells: cached,
	}
}

// Sweep returns a snapshot of the sweep (false if unknown).
func (s *Server) Sweep(id string) (Sweep, bool) {
	s.mu.Lock()
	rec, ok := s.sweeps[id]
	s.mu.Unlock()
	if !ok {
		return Sweep{}, false
	}
	return s.sweepSnapshot(rec), true
}

// ---- HTTP layer ----

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !decodeBody(w, r, &req) {
		return
	}
	sw, err := s.SubmitSweepAs(req, r.Header.Get("X-Tenant"))
	if err != nil {
		writeSubmitError(w, err, s.cfg.QueueCapacity)
		return
	}
	w.Header().Set("Location", "/v1/sweeps/"+sw.ID)
	writeJSON(w, http.StatusAccepted, sw)
}

func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	recs := make([]*sweepRec, 0, len(s.sweeps))
	for _, rec := range s.sweeps {
		recs = append(recs, rec)
	}
	s.mu.Unlock()
	list := make([]Sweep, 0, len(recs))
	for _, rec := range recs {
		list = append(list, s.sweepSnapshot(rec))
	}
	// Zero-padded IDs: lexicographic order is submission order.
	sort.Slice(list, func(i, k int) bool { return list[i].ID < list[k].ID })
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.Sweep(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, sw)
}

// sweepCellsPage is the /v1/sweeps/{id}/cells response: the cells
// completed after the client's cursor, plus enough progress state to
// poll until done. Pass next_after back as ?after=N for the next page;
// the stream is complete when state is terminal and done_cells equals
// the page's end.
type sweepCellsPage struct {
	SweepID    string      `json:"sweep_id"`
	State      JobState    `json:"state"`
	TotalCells int         `json:"total_cells"`
	DoneCells  int         `json:"done_cells"`
	NextAfter  int         `json:"next_after"`
	Cells      []SweepCell `json:"cells"`
}

func (s *Server) handleSweepCells(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	rec, ok := s.sweeps[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", id))
		return
	}
	after := 0
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid \"after\" cursor %q", v))
			return
		}
		after = n
	}
	cells, done := rec.cellsAfter(after)
	sw := s.sweepSnapshot(rec)
	page := sweepCellsPage{
		SweepID:    rec.id,
		State:      sw.State,
		TotalCells: rec.total,
		DoneCells:  done,
		NextAfter:  after + len(cells),
		Cells:      cells,
	}
	if page.Cells == nil {
		page.Cells = []SweepCell{}
	}
	writeJSON(w, http.StatusOK, page)
}

func (s *Server) handleSweepResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	rec, ok := s.sweeps[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", id))
		return
	}
	s.writeJobResult(w, rec.jobID)
}
