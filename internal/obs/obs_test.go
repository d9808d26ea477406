package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/pipeline"
)

func ev(cycle, seq uint64, kind pipeline.TraceKind, path int) pipeline.TraceEvent {
	return pipeline.TraceEvent{Cycle: cycle, Kind: kind, Seq: seq, PC: int(seq), Path: path}
}

func TestRingRoundsCapacityUp(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, 16}, {1, 16}, {16, 16}, {17, 32}, {1000, 1024}, {1 << 16, 1 << 16},
	} {
		if got := NewRing(tc.ask).Cap(); got != tc.want {
			t.Errorf("NewRing(%d).Cap() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

func TestRingKeepsMostRecentInOrder(t *testing.T) {
	r := NewRing(16)
	const n = 40 // overflow a 16-slot ring
	for i := uint64(1); i <= n; i++ {
		r.Event(ev(i, i, pipeline.TraceFetch, 0))
	}
	if r.Total() != n {
		t.Fatalf("Total = %d, want %d", r.Total(), n)
	}
	if want := uint64(n - 16); r.Dropped() != want {
		t.Fatalf("Dropped = %d, want %d", r.Dropped(), want)
	}
	snap := r.Snapshot()
	if len(snap) != 16 {
		t.Fatalf("Snapshot len = %d, want 16", len(snap))
	}
	for i, e := range snap {
		if want := uint64(n - 16 + 1 + i); e.Seq != want {
			t.Fatalf("snap[%d].Seq = %d, want %d (oldest-first order)", i, e.Seq, want)
		}
	}
}

func TestRingUnderfilled(t *testing.T) {
	r := NewRing(64)
	for i := uint64(1); i <= 5; i++ {
		r.Event(ev(i, i, pipeline.TraceCommit, 1))
	}
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", r.Dropped())
	}
	snap := r.Snapshot()
	if len(snap) != 5 || snap[0].Seq != 1 || snap[4].Seq != 5 {
		t.Fatalf("unexpected snapshot %+v", snap)
	}
}

// TestRingConcurrentProgressReads: one producer writes while another
// goroutine polls Total/Dropped (the -debug-addr /metrics pattern) —
// the counters must be readable mid-run without a data race.
func TestRingConcurrentProgressReads(t *testing.T) {
	r := NewRing(1 << 10)
	const n = 40000
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				if r.Dropped() > r.Total() {
					t.Error("Dropped exceeded Total mid-run")
					return
				}
			}
		}
	}()
	for i := uint64(1); i <= n; i++ {
		r.Event(ev(i, i, pipeline.TraceIssue, 0))
	}
	close(done)
	wg.Wait()
	if r.Total() != n {
		t.Fatalf("Total = %d, want %d", r.Total(), n)
	}
	if got := len(r.Snapshot()); got != 1<<10 {
		t.Fatalf("Snapshot len = %d, want full ring %d", got, 1<<10)
	}
}

func TestTee(t *testing.T) {
	if Tee() != nil {
		t.Fatal("Tee() should elide to nil")
	}
	if Tee(nil, nil) != nil {
		t.Fatal("Tee(nil, nil) should elide to nil")
	}
	a, b := NewRing(16), NewRing(16)
	if got := Tee(nil, a); got != pipeline.Tracer(a) {
		t.Fatal("Tee with one live tracer should return it directly")
	}
	tee := Tee(a, b)
	tee.Event(ev(1, 1, pipeline.TraceFetch, 0))
	if a.Total() != 1 || b.Total() != 1 {
		t.Fatalf("fan-out missed a tracer: a=%d b=%d", a.Total(), b.Total())
	}
}

func TestVersionNonEmpty(t *testing.T) {
	v := Version()
	if v == "" || v == "(unknown)" {
		t.Fatalf("Version() = %q; want build info under 'go test'", v)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	cells := []CellTrace{
		{Label: "compress/see", Events: []pipeline.TraceEvent{
			ev(3, 2, pipeline.TraceRename, 1),
			ev(1, 1, pipeline.TraceFetch, 0),
			{Cycle: 2, Kind: pipeline.TraceDiverge, Seq: 3, PC: 3, Path: 1, Arg: 4},
		}},
		{Label: "gcc/monopath", Events: []pipeline.TraceEvent{ev(5, 9, pipeline.TraceCommit, 0)}, Dropped: 7},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, cells); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   uint64         `json:"ts"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if out.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	var procNames []string
	lastTs := map[int]uint64{}
	var xPerPid [2]int
	for _, e := range out.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "process_name" {
				procNames = append(procNames, e.Args["name"].(string))
			}
		case "X":
			if e.Ts < lastTs[e.Pid] {
				t.Fatalf("pid %d: ts %d after %d — not monotonic", e.Pid, e.Ts, lastTs[e.Pid])
			}
			lastTs[e.Pid] = e.Ts
			xPerPid[e.Pid]++
		default:
			t.Fatalf("unexpected ph %q", e.Ph)
		}
	}
	if len(procNames) != 2 || procNames[0] != "compress/see" || procNames[1] != "gcc/monopath" {
		t.Fatalf("process names %v", procNames)
	}
	if xPerPid[0] != 3 || xPerPid[1] != 1 {
		t.Fatalf("event counts per cell = %v", xPerPid)
	}
	if !strings.Contains(buf.String(), `"note":"divergence at history position 4"`) {
		t.Fatal("diverge note lost")
	}
}

func TestWriteChromeTraceDeterministic(t *testing.T) {
	cells := []CellTrace{{Label: "a/b", Events: []pipeline.TraceEvent{
		ev(1, 1, pipeline.TraceFetch, 2), ev(1, 2, pipeline.TraceFetch, 0), ev(2, 1, pipeline.TraceRename, 1),
	}}}
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, cells); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, cells); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of the same cells differ byte-wise")
	}
}

func TestWriteKonata(t *testing.T) {
	li := isa.Inst{Op: isa.Li, Dst: 1, Imm: 5}
	beq := isa.Inst{Op: isa.Beq, Src1: 1, Target: 7}
	events := []pipeline.TraceEvent{
		{Cycle: 1, Kind: pipeline.TraceFetch, Seq: 1, PC: 0, Inst: li},
		{Cycle: 1, Kind: pipeline.TraceFetch, Seq: 2, PC: 1, Inst: beq},
		{Cycle: 2, Kind: pipeline.TraceRename, Seq: 1, PC: 0, Inst: li},
		{Cycle: 3, Kind: pipeline.TraceIssue, Seq: 1, PC: 0, Inst: li},
		{Cycle: 4, Kind: pipeline.TraceWriteback, Seq: 1, PC: 0, Inst: li},
		{Cycle: 5, Kind: pipeline.TraceCommit, Seq: 1, PC: 0, Inst: li},
		{Cycle: 5, Kind: pipeline.TraceKill, Seq: 2, PC: 1, Inst: beq},
	}
	var buf bytes.Buffer
	if err := WriteKonata(&buf, events); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	if !sc.Scan() || sc.Text() != "Kanata\t0004" {
		t.Fatalf("bad header %q", sc.Text())
	}
	var commits, squashes, rows int
	var labels []string
	for sc.Scan() {
		f := strings.Split(sc.Text(), "\t")
		switch f[0] {
		case "I":
			rows++
		case "L":
			labels = append(labels, f[3])
		case "R":
			if f[3] == "0" {
				commits++
			} else {
				squashes++
			}
		}
	}
	if rows != 2 {
		t.Fatalf("rows = %d, want 2", rows)
	}
	if want := []string{"0: li    r1, 5 [XXXX]", "1: beq   r1, r0, @7 [XXXX]"}; !slices.Equal(labels, want) {
		t.Errorf("labels %q, want %q", labels, want)
	}
	if commits != 1 || squashes != 1 {
		t.Fatalf("commits=%d squashes=%d, want 1 and 1", commits, squashes)
	}
}
