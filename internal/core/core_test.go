package core

import (
	"context"
	"testing"

	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

func testProg(t *testing.T) *isa.Program {
	t.Helper()
	p, err := workload.Generate(workload.Spec{
		Name: "core-test", Seed: 7, TargetInsts: 40_000,
		Branches: []workload.BranchSpec{
			{Kind: workload.KindBernoulli, Bias: 0.6},
			{Kind: workload.KindLoop, Trip: 4},
		},
		BlockLen: 5, Chains: 4, LoadFrac: 0.2, StoreFrac: 0.1, PredDepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNamedConfigsMatchPaperLegend(t *testing.T) {
	mono := ConfigMonopath()
	if mono.Mode != pipeline.Monopath || mono.Confidence.Kind != pipeline.ConfAlwaysHigh {
		t.Error("monopath must never diverge")
	}
	oracle := ConfigOracleBP()
	if oracle.Predictor.Kind != pipeline.PredOracle || oracle.Mode != pipeline.Monopath {
		t.Error("oracle is perfect prediction on the monopath machine")
	}
	see := ConfigSEE()
	if see.Mode != pipeline.PolyPath || see.Confidence.Kind != pipeline.ConfJRS {
		t.Error("SEE is PolyPath with JRS")
	}
	if !see.Confidence.EnhancedIndex || see.Confidence.CtrBits != 1 {
		t.Error("SEE uses the paper's modified JRS: 1-bit counters, enhanced index")
	}
	orcCE := ConfigSEEOracleCE()
	if orcCE.Confidence.Kind != pipeline.ConfOracle || orcCE.Mode != pipeline.PolyPath {
		t.Error("gshare/oracle is PolyPath with the perfect estimator")
	}
	dual := ConfigDualPath()
	if dual.MaxDivergences != 1 {
		t.Error("dual-path restricts to one divergence (3 paths)")
	}
	dualOrc := ConfigDualPathOracleCE()
	if dualOrc.MaxDivergences != 1 || dualOrc.Confidence.Kind != pipeline.ConfOracle {
		t.Error("dual-path oracle config")
	}
	ad := ConfigSEEAdaptive()
	if ad.Confidence.Kind != pipeline.ConfAdaptive {
		t.Error("adaptive config")
	}
}

func TestRunVerifiesAndReports(t *testing.T) {
	p := testProg(t)
	res, err := RunCell(context.Background(), p, ConfigSEE(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 || res.IPC != res.Stats.IPC() {
		t.Errorf("IPC accounting: %v vs %v", res.IPC, res.Stats.IPC())
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	p := testProg(t)
	cfg := ConfigSEE()
	cfg.WindowSize = 1
	if _, err := RunCell(context.Background(), p, cfg, nil, nil); err == nil {
		t.Error("expected config validation error")
	}
}

func TestRunRejectsBadProgram(t *testing.T) {
	p := &isa.Program{Name: "bad", MemWords: 3, Code: []isa.Inst{{Op: isa.Halt}}}
	if _, err := RunCell(context.Background(), p, ConfigSEE(), nil, nil); err == nil {
		t.Error("expected program validation error")
	}
}

// TestConfigOrdering pins the performance ordering the whole evaluation
// relies on: monopath <= SEE-oracle-CE <= oracle, with real-JRS SEE in
// between monopath and the oracle estimator.
func TestConfigOrdering(t *testing.T) {
	p := testProg(t)
	run := func(cfg Config) float64 {
		res, err := RunCell(context.Background(), p, cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.IPC
	}
	mono := run(ConfigMonopath())
	see := run(ConfigSEE())
	orcCE := run(ConfigSEEOracleCE())
	oracle := run(ConfigOracleBP())
	if !(mono < orcCE && orcCE < oracle) {
		t.Errorf("ordering violated: mono %.3f, SEE/orcCE %.3f, oracle %.3f", mono, orcCE, oracle)
	}
	if see > orcCE {
		t.Errorf("real estimator %.3f cannot beat the perfect estimator %.3f", see, orcCE)
	}
}

// TestSEEGainSeedStability: the go benchmark's SEE gain must be positive
// for multiple workload seeds (guards against tuning to one RNG stream).
func TestSEEGainSeedStability(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed simulation")
	}
	bm, err := workload.ByName("go", 150_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{104, 777} {
		spec := bm.Spec
		spec.Seed = seed
		p, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		mono, err := RunCell(context.Background(), p, ConfigMonopath(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		see, err := RunCell(context.Background(), p, ConfigSEE(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if gain := see.IPC/mono.IPC - 1; gain < 0.02 {
			t.Errorf("seed %d: go SEE gain %+.1f%%, want clearly positive", seed, 100*gain)
		}
	}
}
