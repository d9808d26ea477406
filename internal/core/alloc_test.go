package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// TestSteadyStateCycleAllocatesNothing is the cycle loop's allocation
// gate: once a machine has warmed up, a cycle allocates nothing under any
// named model. Window entries, CTX slots with their register maps and
// return-address stacks, latches and scratch buffers are all recycled, so
// divergence, kill and recovery cost no heap objects.
func TestSteadyStateCycleAllocatesNothing(t *testing.T) {
	checkSteadyStateAllocs(t, nil)
}

// TestSteadyStateTracedCycleAllocatesNothing is the same gate with a
// preallocated obs.Ring attached: an event carries plain values, so
// emitting one allocates nothing either.
func TestSteadyStateTracedCycleAllocatesNothing(t *testing.T) {
	checkSteadyStateAllocs(t, obs.NewRing(1<<12))
}

func checkSteadyStateAllocs(t *testing.T, tr pipeline.Tracer) {
	const (
		insts    = 300_000 // the oracle machine needs over 25,000 cycles
		warmup   = 20_000
		measured = 5_000
		maxRate  = 0.01 // heap objects per cycle
	)
	// m88ksim's rename stalls part-way through a latch far more often
	// than gcc's, so it is the one that shows a latch losing capacity.
	for _, bench := range []string{"gcc", "m88ksim"} {
		bm, err := workload.ByName(bench, insts)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := workload.Generate(bm.Spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range ModelNames() {
			cfg, err := ModelConfig(model)
			if err != nil {
				t.Fatal(err)
			}
			m, err := pipeline.New(prog, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", bench, model, err)
			}
			if tr != nil {
				m.SetTracer(tr)
			}
			for i := 0; i < warmup; i++ {
				m.Step()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < measured; i++ {
				m.Step()
			}
			runtime.ReadMemStats(&after)
			if m.Halted() {
				t.Errorf("%s/%s: halted by cycle %d; the gate needs %d live cycles", bench, model, m.Cycle(), warmup+measured)
				continue
			}
			if rate := float64(after.Mallocs-before.Mallocs) / measured; rate >= maxRate {
				t.Errorf("%s/%s: %.3f heap objects per steady-state cycle over %d cycles, want < %v",
					bench, model, rate, measured, maxRate)
			}
		}
	}
}

// TestWarmCellAllocationBound is the arena's gate: once a worker's arena
// has run a cell of every Table 1 stand-in, a 1,000-instruction cell of
// any of them, under each model of the cells-short benchmark, allocates
// little more than what escapes with its result (the Result, the
// statistics' histograms) and the Machine itself. The memory pages, the
// register file and free list, the checkpoints, the BTB, the CTX state
// and the predictor and estimator tables all come from the arena; losing
// any one of the larger of them exceeds the bound. Not parallel: the
// TotalAlloc delta counts every goroutine's allocations.
func TestWarmCellAllocationBound(t *testing.T) {
	const maxBytes = 12 << 10
	var progs []*isa.Program
	for _, bm := range workload.Suite(1_000) {
		p, err := workload.Generate(bm.Spec)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	ctx := context.Background()
	for _, model := range []string{"monopath", "see", "tage", "adaptive"} {
		cfg, err := ModelConfig(model)
		if err != nil {
			t.Fatal(err)
		}
		a := pipeline.NewArena()
		for _, p := range progs {
			if _, err := RunCell(ctx, p, cfg, nil, a); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range progs {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := RunCell(ctx, p, cfg, nil, a)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > maxBytes {
				t.Errorf("%s/%s: a warm cell allocated %d bytes, want at most %d", model, p.Name, got, maxBytes)
			}
		}
	}
}
