package core

import (
	"runtime"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/workload"
)

// TestSteadyStateCycleAllocatesNothing is the cycle loop's allocation
// gate: once a machine has warmed up, a cycle allocates nothing under any
// named model. Window entries, CTX slots with their register maps and
// return-address stacks, latches and scratch buffers are all recycled, so
// divergence, kill and recovery cost no heap objects.
func TestSteadyStateCycleAllocatesNothing(t *testing.T) {
	const (
		insts    = 300_000 // the oracle machine needs over 25,000 cycles
		warmup   = 20_000
		measured = 5_000
		maxRate  = 0.01 // heap objects per cycle
	)
	bm, err := workload.ByName("gcc", insts)
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
			t.Fatalf("%s: %v", model, err)
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
			t.Errorf("%s: halted by cycle %d; the gate needs %d live cycles", model, m.Cycle(), warmup+measured)
			continue
		}
		if rate := float64(after.Mallocs-before.Mallocs) / measured; rate >= maxRate {
			t.Errorf("%s: %.3f heap objects per steady-state cycle over %d cycles, want < %v",
				model, rate, measured, maxRate)
		}
	}
}
