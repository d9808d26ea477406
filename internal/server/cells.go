package server

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/harness"
	"repro/internal/workload"
)

// Every job logs its completed (benchmark, config, replicate) cells as
// they finish, and GET /v1/jobs/{id}/cells?after=N pages through that
// log while the job runs, so a client can watch a long configuration
// sweep fill in cell by cell.

// JobCell is one completed cell in the GET /v1/jobs/{id}/cells stream.
// Seq is the 1-based completion order (schedule-dependent); ID is the
// stable harness.CellID (schedule-independent).
type JobCell struct {
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

// cellsPage is the GET /v1/jobs/{id}/cells response: the cells completed
// after the client's cursor, plus enough progress state to poll until
// done. Pass next_after back as ?after=N for the next page; the stream is
// complete when state is terminal and done_cells equals next_after.
// TotalCells is set for configs jobs only: an experiment's cell count is
// not known before it runs.
type cellsPage struct {
	JobID       string    `json:"job_id"`
	State       JobState  `json:"state"`
	TotalCells  int       `json:"total_cells,omitempty"`
	DoneCells   int       `json:"done_cells"`
	CachedCells int       `json:"cached_cells"`
	NextAfter   int       `json:"next_after"`
	Cells       []JobCell `json:"cells"`
}

// suiteSize is the number of Table 1 benchmarks a job without a
// "benchmarks" list runs.
var suiteSize = len(workload.Names())

// cellLog is a job's completed cells in completion order. Appends arrive
// from harness worker goroutines, so the log has its own mutex. It keeps
// the raw events and formats them only when a page is served, so a job
// nobody watches pays one slice append per cell.
type cellLog struct {
	total int // expected cells of a configs job; 0 when unknown

	mu     sync.Mutex
	cells  []harness.CellEvent
	cached int
}

// newCellLog sizes the log of a job: a configs job runs benchmarks x
// configs x replicates cells.
func newCellLog(req JobRequest) *cellLog {
	if len(req.Configs) == 0 {
		return &cellLog{}
	}
	benches := len(req.Benchmarks)
	if benches == 0 {
		benches = suiteSize + len(req.Workloads)
	}
	total := benches * len(req.Configs) * max(req.Replicates, 1)
	return &cellLog{total: total, cells: make([]harness.CellEvent, 0, total)}
}

// add appends one completed cell (harness Options.OnCell).
func (l *cellLog) add(ev harness.CellEvent) {
	l.mu.Lock()
	l.cells = append(l.cells, ev)
	if ev.FromCache {
		l.cached++
	}
	l.mu.Unlock()
}

// result fills a finished job's cell counts and committed instructions.
func (l *cellLog) result(r *JobResult) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r.Cells, r.CacheHits = len(l.cells), l.cached
	for _, ev := range l.cells {
		r.SimInsts += ev.Committed
	}
}

// page returns the cells with Seq > after.
func (l *cellLog) page(after int) cellsPage {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := cellsPage{TotalCells: l.total, DoneCells: len(l.cells), CachedCells: l.cached,
		Cells: make([]JobCell, 0, max(len(l.cells)-after, 0))}
	for i := after; i < len(l.cells); i++ {
		ev := l.cells[i]
		p.Cells = append(p.Cells, JobCell{
			Seq:       i + 1,
			ID:        harness.CellID(ev.Benchmark, ev.Config, ev.Replicate),
			Benchmark: ev.Benchmark,
			Config:    ev.Config,
			Replicate: ev.Replicate,
			FromCache: ev.FromCache,
			Shard:     ev.Shard,
			IPC:       ev.IPC,
			ElapsedMS: float64(ev.Elapsed.Nanoseconds()) / 1e6,
		})
	}
	p.NextAfter = max(after, len(l.cells))
	return p
}

func (s *Server) handleJobCells(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// The state is read before the cells: a job turns terminal only after
	// its last cell is logged, so a terminal page is a complete one.
	s.mu.Lock()
	j, ok := s.jobs[id]
	var state JobState
	if ok {
		state = j.State
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
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
	page := j.cells.page(after)
	page.JobID, page.State = id, state
	writeJSON(w, http.StatusOK, page)
}
