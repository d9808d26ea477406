package pipeline

import (
	"bytes"
	"strings"
	"testing"
)

func TestPipeTraceCollectsTimelines(t *testing.T) {
	prog := diamondProgram(5_000, 0.5)
	cfg := DefaultConfig()
	m, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pt := NewPipeTrace(50)
	m.SetTracer(pt)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pt.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"seq", "fetch", "rename", "instruction", "li"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q", want)
		}
	}
	// Committed instructions should show a C<cycle> end marker; with a
	// random branch there must also be kills.
	if !strings.Contains(out, "C") {
		t.Error("no committed instruction in trace")
	}
}

func TestPipeTraceStageOrdering(t *testing.T) {
	prog := diamondProgram(5_000, 0.7)
	m, err := New(prog, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pt := NewPipeTrace(200)
	m.SetTracer(pt)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// Invariant: for every collected instruction, stage cycles are
	// monotone: fetch < rename <= issue <= writeback (when present).
	for seq, r := range pt.rows {
		if r.rename != 0 && r.rename <= r.fetch {
			t.Fatalf("seq %d: rename %d not after fetch %d", seq, r.rename, r.fetch)
		}
		if r.issue != 0 && r.issue < r.rename {
			t.Fatalf("seq %d: issue %d before rename %d", seq, r.issue, r.rename)
		}
		if r.writeback != 0 && r.writeback <= r.issue {
			t.Fatalf("seq %d: writeback %d not after issue %d", seq, r.writeback, r.issue)
		}
		if r.commit != 0 && r.writeback != 0 && r.commit <= r.writeback {
			t.Fatalf("seq %d: commit %d not after writeback %d", seq, r.commit, r.writeback)
		}
	}
	// Front-end latency: rename - fetch must equal FrontEndStages for
	// unstalled instructions; it can only be larger under stall.
	min := uint64(1 << 62)
	for _, r := range pt.rows {
		if r.rename != 0 && r.rename-r.fetch < min {
			min = r.rename - r.fetch
		}
	}
	if min != uint64(DefaultConfig().FrontEndStages) {
		t.Errorf("minimum fetch-to-rename latency %d, want %d stages", min, DefaultConfig().FrontEndStages)
	}
}

func TestTraceKindNames(t *testing.T) {
	for k := TraceFetch; k <= TraceRecover; k++ {
		if strings.Contains(k.String(), "?") {
			t.Errorf("kind %d has no name", k)
		}
	}
}

func TestTracerDetach(t *testing.T) {
	prog := diamondProgram(3_000, 0.5)
	m, err := New(prog, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pt := NewPipeTrace(10)
	m.SetTracer(pt)
	m.SetTracer(nil) // detached before running: no events
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(pt.rows) != 0 {
		t.Error("detached tracer received events")
	}
}

func TestPipeTraceControlEventsOnPolyPath(t *testing.T) {
	prog := diamondProgram(8_000, 0.5)
	m, err := New(prog, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[TraceKind]int{}
	m.SetTracer(tracerFunc(func(e TraceEvent) { kinds[e.Kind]++ }))
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []TraceKind{TraceFetch, TraceRename, TraceIssue, TraceWriteback, TraceCommit, TraceKill, TraceDiverge, TraceResolve} {
		if kinds[k] == 0 {
			t.Errorf("no %v events on a divergence-heavy run", k)
		}
	}
	// Conservation: every instruction fetched is eventually committed or
	// killed (up to the in-flight tail at halt).
	if kinds[TraceCommit]+kinds[TraceKill] > kinds[TraceFetch] {
		t.Error("more terminations than fetches")
	}
	// Events must never outnumber their upstream stage.
	if kinds[TraceRename] > kinds[TraceFetch] || kinds[TraceIssue] > kinds[TraceRename] {
		t.Error("stage event ordering violated in aggregate")
	}
}

// tracerFunc adapts a function to the Tracer interface.
type tracerFunc func(TraceEvent)

func (f tracerFunc) Event(e TraceEvent) { f(e) }

func TestStatsSummaryMentionsNewSubsystems(t *testing.T) {
	prog := switchProgram(10_000, 4)
	cfg := DefaultConfig()
	cfg.EnableMRC = true
	m, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	out := m.Stats.Summary()
	if !strings.Contains(out, "indirect jumps") {
		t.Errorf("summary missing indirect jump line:\n%s", out)
	}
	if !strings.Contains(out, "window occupancy") || !strings.Contains(out, "stall cycles") {
		t.Errorf("summary missing cycle accounting:\n%s", out)
	}
}
