package server

import (
	"fmt"
	"net/http"
	"sync"

	"repro/internal/obs"
)

// trace.go implements per-job cycle-level trace capture: a job submitted
// with "trace": true runs its simulated cells under bounded ring tracers
// (internal/obs) and the captured streams are downloadable from
// GET /v1/jobs/{id}/trace as Chrome/Perfetto trace_event JSON once the
// job has finished. Tracing is observation-only — results, memoization
// identity and golden tables are unchanged — and memoized cells, which
// replay without simulating, produce no events.

// jobTrace accumulates the captured cell streams of one job under a
// total event budget, so a trace-everything sweep cannot hold the whole
// event firehose in memory: cells arriving after the budget is spent are
// counted, not stored.
type jobTrace struct {
	mu           sync.Mutex
	budget       int // remaining stored-event budget
	cells        []obs.CellTrace
	droppedCells int
}

// jobTraceBudget is the total number of trace events one traced job
// retains; a request's trace_limit can only lower the per-cell share.
const jobTraceBudget = 1 << 18

func newJobTrace() *jobTrace { return &jobTrace{budget: jobTraceBudget} }

// add stores one simulated cell's trace (an Options.OnTrace callback;
// may run concurrently on harness workers).
func (t *jobTrace) add(cell obs.CellTrace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(cell.Events) > t.budget {
		t.droppedCells++
		return
	}
	t.budget -= len(cell.Events)
	t.cells = append(t.cells, cell)
}

// snapshot returns the stored cells (shared slices; callers only read).
func (t *jobTrace) snapshot() ([]obs.CellTrace, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cells, t.droppedCells
}

func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var state JobState
	var traced bool
	var tr *jobTrace
	if ok {
		state, traced, tr = j.State, j.Request.Trace, j.trace
	}
	s.mu.Unlock()
	switch {
	case !ok:
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	case !traced:
		writeError(w, http.StatusNotFound, fmt.Errorf("job %s was not submitted with \"trace\": true", id))
		return
	case state == JobQueued || state == JobRunning:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusAccepted, fmt.Errorf("job %s is %s; its trace is served once it finishes", id, state))
		return
	}
	var cells []obs.CellTrace
	var droppedCells int
	if tr != nil {
		// tr is nil when the job never ran (e.g. cancelled while queued):
		// serve a valid empty trace rather than an error.
		cells, droppedCells = tr.snapshot()
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+"-trace.json"))
	if droppedCells > 0 {
		w.Header().Set("X-Polyserve-Trace-Dropped-Cells", fmt.Sprint(droppedCells))
	}
	_ = obs.WriteChromeTrace(w, cells)
}
