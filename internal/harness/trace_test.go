package harness

import (
	"sync"
	"testing"

	"repro/internal/pipeline"
)

// TestTracingObservationOnly is the tentpole invariant of the obs
// subsystem: attaching a tracer to a sweep changes nothing about the
// rendered table, and every simulated cell delivers a bounded,
// well-formed event stream.
func TestTracingObservationOnly(t *testing.T) {
	opts := Options{TargetInsts: 30_000, Benchmarks: []string{"go"}}
	configs := []NamedConfig{
		{Name: "monopath", Cfg: coreMonopath()},
	}
	plain, err := RunConfigs(opts, configs)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	type capture struct {
		events  []pipeline.TraceEvent
		dropped uint64
	}
	got := map[string]capture{}
	traced := opts
	traced.TraceLimit = 4096
	traced.OnTrace = func(ev CellEvent, events []pipeline.TraceEvent, dropped uint64) {
		mu.Lock()
		got[ev.Benchmark+"/"+ev.Config] = capture{events, dropped}
		mu.Unlock()
	}
	withTrace, err := RunConfigs(traced, configs)
	if err != nil {
		t.Fatal(err)
	}

	a := RenderTable("t", plain)
	b := RenderTable("t", withTrace)
	if a != b {
		t.Fatalf("tracing changed the rendered table:\n--- off ---\n%s\n--- on ---\n%s", a, b)
	}

	cap, ok := got["go/monopath"]
	if !ok {
		t.Fatalf("OnTrace never fired for go/monopath (got %v)", got)
	}
	if len(cap.events) == 0 {
		t.Fatal("captured zero events from a simulated cell")
	}
	if cap.dropped == 0 {
		t.Errorf("a 30k-instruction run should overflow a 4096-event ring; dropped = 0")
	}
	var lastCycle uint64
	for i, e := range cap.events {
		if e.Cycle < lastCycle {
			t.Fatalf("event %d: cycle %d after %d — snapshot out of order", i, e.Cycle, lastCycle)
		}
		lastCycle = e.Cycle
	}
}

// TestTracingSkipsMemoizedCells: cache replays do not simulate, so they
// must not produce trace events — the trace of a fully-memoized sweep
// is empty while its table is still bit-identical.
func TestTracingSkipsMemoizedCells(t *testing.T) {
	memo := NewLRU[MemoValue](64)
	opts := Options{TargetInsts: 30_000, Benchmarks: []string{"go"}, Memo: memo}
	configs := []NamedConfig{{Name: "monopath", Cfg: coreMonopath()}}

	first, err := RunConfigs(opts, configs)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	fired := 0
	traced := opts
	traced.TraceLimit = 1024
	traced.OnTrace = func(ev CellEvent, events []pipeline.TraceEvent, dropped uint64) {
		mu.Lock()
		fired++
		mu.Unlock()
	}
	second, err := RunConfigs(traced, configs)
	if err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatalf("OnTrace fired %d time(s) on a fully-memoized sweep", fired)
	}
	if RenderTable("t", first) != RenderTable("t", second) {
		t.Fatal("memoized replay with tracing enabled changed the table")
	}
}
