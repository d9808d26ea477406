package harness

import (
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestRunMatrixSharedPrograms: with eight workers, up to eight cells of
// one benchmark start together and meet at its programs' one-time
// generation; the table and every cell's statistics must still equal a
// one-worker run's. CI runs this under -race -count=10.
func TestRunMatrixSharedPrograms(t *testing.T) {
	base := Options{
		TargetInsts: 5000,
		Benchmarks:  []string{"gcc", "m88ksim"},
		Replicates:  3,
	}
	cfgs := []NamedConfig{
		{Name: "monopath", Cfg: core.ConfigMonopath()},
		{Name: "see", Cfg: core.ConfigSEE()},
		{Name: "dualpath", Cfg: core.ConfigDualPath()},
	}
	run := func(par int) *Matrix {
		opts := base
		opts.Parallelism = par
		m, err := RunConfigs(opts, cfgs)
		if err != nil {
			t.Fatalf("-j %d: %v", par, err)
		}
		return m
	}
	seq, par := run(1), run(8)
	want := RenderTable("shared programs (IPC)", seq)
	if got := RenderTable("shared programs (IPC)", par); got != want {
		t.Fatalf("-j 8 table differs from -j 1:\n-- j1 --\n%s-- j8 --\n%s", want, got)
	}
	for _, b := range seq.Benchmarks {
		for _, c := range seq.Configs {
			if !reflect.DeepEqual(seq.Cell(b, c), par.Cell(b, c)) {
				t.Errorf("cell %s/%s differs between -j 1 and -j 8", b, c)
			}
		}
	}
}

// TestMemoizedRerunGeneratesNothing: when every cell replays from the
// memo, no program is generated. Generating even one would allocate its
// data segment and its pilot run's image, so the whole rerun must
// allocate less than one gcc memory image. Not parallel: the TotalAlloc
// delta counts every goroutine's allocations.
func TestMemoizedRerunGeneratesNothing(t *testing.T) {
	var simulated atomic.Int64
	opts := Options{
		TargetInsts: 1000,
		Benchmarks:  []string{"m88ksim", "gcc"},
		Replicates:  2,
		Memo:        NewLRU[MemoValue](64),
		OnCell: func(ev CellEvent) {
			if !ev.FromCache {
				simulated.Add(1)
			}
		},
	}
	cfgs := []NamedConfig{
		{Name: "monopath", Cfg: core.ConfigMonopath()},
		{Name: "see", Cfg: core.ConfigSEE()},
	}
	first, err := RunConfigs(opts, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if n := simulated.Swap(0); n != 8 {
		t.Fatalf("first run simulated %d cells, want 8", n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	second, err := RunConfigs(opts, cfgs)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n := simulated.Load(); n != 0 {
		t.Fatalf("rerun simulated %d cells, want every cell from the memo", n)
	}
	gcc, err := workload.ByName("gcc", opts.TargetInsts)
	if err != nil {
		t.Fatal(err)
	}
	bound := uint64(workload.MustGenerate(gcc.Spec).MemWords) * 8
	if got := after.TotalAlloc - before.TotalAlloc; got >= bound {
		t.Errorf("memoized rerun allocated %d bytes, want under one gcc image (%d)", got, bound)
	}
	if a, b := RenderTable("t", first), RenderTable("t", second); a != b {
		t.Errorf("memoized rerun table differs:\n%s\n%s", a, b)
	}
}

// TestMemoSeparatesInlineWorkloadBodies: two inline workloads with the
// same name, seed and length but different bodies are different cells.
// One memo must not serve the first one's result for the second.
func TestMemoSeparatesInlineWorkloadBodies(t *testing.T) {
	gcc, err := workload.ByName("gcc", 5000)
	if err != nil {
		t.Fatal(err)
	}
	a := gcc.Spec
	a.Name = "inline-x"
	b := a
	b.Chains = 2
	cfgs := []NamedConfig{{Name: "see", Cfg: core.ConfigSEE()}}
	ipc := func(spec workload.Spec, memo Memo) float64 {
		m, err := RunConfigs(Options{
			Benchmarks: []string{spec.Name},
			Extra:      []workload.Benchmark{{Spec: spec}},
			Memo:       memo,
		}, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		return m.IPC(spec.Name, "see")
	}
	memo := NewLRU[MemoValue](16)
	ipcA := ipc(a, memo)
	ipcB := ipc(b, memo)
	alone := ipc(b, nil)
	if ipcB != alone {
		t.Errorf("second workload through a shared memo: IPC %v, alone %v", ipcB, alone)
	}
	if ipcA == alone {
		t.Fatalf("the two bodies simulate to the same IPC %v; the test needs them to differ", ipcA)
	}
	if CellKey(a, "h") == CellKey(b, "h") {
		t.Errorf("CellKey ignores the workload body: %s", CellKey(a, "h"))
	}
}

// TestGenerationErrorFailsEveryCell: a program that cannot be generated
// fails each of its cells, and the run reports the lowest-ordered one
// under any worker count. Cells of other programs still run.
func TestGenerationErrorFailsEveryCell(t *testing.T) {
	bad := workload.Spec{Name: "inline-bad", Seed: 1, BlockLen: 4, Chains: 2,
		Branches: []workload.BranchSpec{{Kind: workload.KindLoop, Trip: 1}}}
	cfgs := []NamedConfig{
		{Name: "monopath", Cfg: core.ConfigMonopath()},
		{Name: "see", Cfg: core.ConfigSEE()},
	}
	for _, par := range []int{1, 4} {
		var ran atomic.Int64
		_, err := RunConfigs(Options{
			TargetInsts: 1000,
			Parallelism: par,
			Benchmarks:  []string{"vortex", "inline-bad"},
			Extra:       []workload.Benchmark{{Spec: bad}},
			Replicates:  2,
			OnCell: func(ev CellEvent) {
				if ev.Benchmark == "inline-bad" {
					t.Errorf("-j %d: cell %s/%s/r%d ran", par, ev.Benchmark, ev.Config, ev.Replicate)
				}
				ran.Add(1)
			},
		}, cfgs)
		if err == nil || !strings.HasPrefix(err.Error(), "inline-bad/monopath: workload: inline-bad:") {
			t.Fatalf("-j %d: error %v, want the inline-bad/monopath generation failure", par, err)
		}
		if n := ran.Load(); n != 4 {
			t.Errorf("-j %d: %d cells ran, want vortex's 4", par, n)
		}
	}
}
