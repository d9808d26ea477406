package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/pipeline"
)

// CellTrace is the captured event stream of one simulated cell (one
// benchmark under one configuration), the unit the exporters consume.
// A single polysim run is one cell; a harness sweep or polyserve job
// produces one per simulated (non-memoized) cell.
type CellTrace struct {
	// Label identifies the cell, e.g. "compress/see" or "gcc/monopath/r1".
	Label string
	// Events is the retained event stream in arrival order.
	Events []pipeline.TraceEvent
	// Dropped counts events lost to the capture bound (the ring kept the
	// most recent ones).
	Dropped uint64
}

// chromeEvent is one entry of the Chrome trace_event format, the JSON
// schema Perfetto (ui.perfetto.dev) and chrome://tracing load natively.
// Timestamps are in microseconds; we map one simulated cycle to 1us.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object container variant of the format.
type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// WriteChromeTrace renders the captured cells as Chrome trace_event JSON.
// Each cell becomes one "process" (pid = cell index) whose "threads" are
// the CTX-table path slots, so Perfetto shows one swim lane per live
// path; every pipeline event is a 1-cycle complete event carrying the
// sequence number, PC, CTX tag and note as args. Events are emitted in
// nondecreasing timestamp order.
func WriteChromeTrace(w io.Writer, cells []CellTrace) error {
	var out chromeTrace
	out.DisplayTimeUnit = "ms"
	out.OtherData = map[string]any{"generator": "polypath obs " + Version()}
	for pid, cell := range cells {
		// Metadata: name the process after the cell and each thread after
		// its CTX path slot.
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": cell.Label},
		})
		if cell.Dropped > 0 {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "process_labels", Ph: "M", Pid: pid,
				Args: map[string]any{"labels": fmt.Sprintf("%d events dropped at capture", cell.Dropped)},
			})
		}
		paths := map[int]bool{}
		events := make([]chromeEvent, 0, len(cell.Events))
		for _, e := range cell.Events {
			paths[e.Path] = true
			args := map[string]any{"seq": e.Seq, "pc": e.PC, "ctx": e.Tag.String()}
			if note := e.Note(); note != "" {
				args["note"] = note
			}
			events = append(events, chromeEvent{
				Name: e.Kind.String(),
				Cat:  "pipeline",
				Ph:   "X",
				Ts:   e.Cycle,
				Dur:  1,
				Pid:  pid,
				Tid:  e.Path,
				Args: args,
			})
		}
		tids := make([]int, 0, len(paths))
		for tid := range paths {
			tids = append(tids, tid)
		}
		sort.Ints(tids)
		for _, tid := range tids {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": fmt.Sprintf("path %d", tid)},
			})
		}
		// Arrival order is already cycle order per machine, but rings may
		// interleave producers; sort so consumers can rely on monotonic
		// timestamps.
		sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
		out.TraceEvents = append(out.TraceEvents, events...)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
