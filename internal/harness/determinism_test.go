package harness

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestHarnessRunsAreBitIdentical is the determinism regression test for the
// simulator core: the same experiment run twice — with parallel fan-out, so
// it also exercises the concurrent paths under -race — must produce exactly
// the same IPC and per-cell statistics, bit for bit. Any nondeterminism
// (map-iteration order leaking into results, shared mutable state between
// concurrently simulated machines, pool reuse changing outcomes) fails this
// test rather than silently perturbing the paper's tables.
func TestHarnessRunsAreBitIdentical(t *testing.T) {
	opts := Options{
		TargetInsts: 20000,
		Parallelism: 4,
		Benchmarks:  []string{"gcc", "go"},
	}
	first, err := Figure8(opts)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	second, err := Figure8(opts)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}

	if !reflect.DeepEqual(first.Matrix.Benchmarks, second.Matrix.Benchmarks) ||
		!reflect.DeepEqual(first.Matrix.Configs, second.Matrix.Configs) {
		t.Fatalf("matrix shape differs between runs")
	}
	for _, b := range first.Matrix.Benchmarks {
		for _, c := range first.Matrix.Configs {
			c1, c2 := first.Matrix.Cell(b, c), second.Matrix.Cell(b, c)
			if c1.IPC != c2.IPC {
				t.Errorf("%s/%s: IPC %v vs %v", b, c, c1.IPC, c2.IPC)
			}
			if !reflect.DeepEqual(c1.Stats, c2.Stats) {
				t.Errorf("%s/%s: stats differ between runs:\n run 1: %+v\n run 2: %+v",
					b, c, c1.Stats, c2.Stats)
			}
		}
	}
	if !reflect.DeepEqual(first.Extras, second.Extras) {
		t.Errorf("Figure 8 companion metrics differ between runs")
	}
}

// TestRepeatedSimulationIsBitIdentical runs one (benchmark, config) cell
// twice on the same machine configuration and asserts the complete
// statistics block — misprediction counts, confidence-estimator counters,
// histograms, everything — is identical. This pins down determinism at the
// single-machine level, independent of the harness scheduling above.
func TestRepeatedSimulationIsBitIdentical(t *testing.T) {
	bm, err := workload.ByName("gcc", 20000)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := workload.Generate(bm.Spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		cfg  core.Config
	}{
		{"monopath", core.ConfigMonopath()},
		{"see", core.ConfigSEE()},
	} {
		r1, err := core.RunCell(context.Background(), prog, cfg.cfg, nil, nil)
		if err != nil {
			t.Fatalf("%s: first run: %v", cfg.name, err)
		}
		r2, err := core.RunCell(context.Background(), prog, cfg.cfg, nil, nil)
		if err != nil {
			t.Fatalf("%s: second run: %v", cfg.name, err)
		}
		if r1.IPC != r2.IPC {
			t.Errorf("%s: IPC %v vs %v", cfg.name, r1.IPC, r2.IPC)
		}
		if !reflect.DeepEqual(r1.Stats, r2.Stats) {
			t.Errorf("%s: stats differ between identical runs", cfg.name)
		}
	}
}
