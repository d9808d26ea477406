package pipeline

import (
	"errors"
	"testing"

	"repro/internal/isa"
	"repro/internal/workload"
)

// sumProgram computes the sum of data[0..n) with a data-dependent diamond
// per element, then halts. It exercises loads, stores, branches on loaded
// data (hard to predict), and loop control.
func sumProgram(n int) *isa.Program {
	b := workload.NewBuilder("sum")
	base, data := b.Alloc(n)
	for i := range data {
		data[i] = int64((i*7)%13 - 6)
	}
	b.Li(1, 0)        // i
	b.Li(2, int64(n)) // n
	b.Li(3, 0)        // sum
	b.Li(4, 0)        // count of negatives
	b.Label("top")
	b.Load(5, 1, base) // v = data[i]
	b.Branch(isa.Bge, 5, 0, "nonneg")
	b.OpI(isa.Addi, 4, 4, 1) // negative: count++
	b.Op3(isa.Sub, 3, 3, 5)  // sum -= v (abs accumulate)
	b.Jump("next")
	b.Label("nonneg")
	b.Op3(isa.Add, 3, 3, 5) // sum += v
	b.Label("next")
	b.OpI(isa.Addi, 1, 1, 1)
	b.Branch(isa.Blt, 1, 2, "top")
	b.Store(3, 0, base+int64(n)) // mem[base+n] = sum
	b.Store(4, 0, base+int64(n)+1)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

func runProg(t *testing.T, p *isa.Program, cfg Config) *Machine {
	t.Helper()
	m, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyArchState(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMonopathArchEquivalence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = Monopath
	cfg.Confidence.Kind = ConfAlwaysHigh
	m := runProg(t, sumProgram(500), cfg)
	if m.Stats.Committed == 0 || m.Stats.Cycles == 0 {
		t.Fatal("no work simulated")
	}
	if m.Stats.CondBranches == 0 {
		t.Fatal("no branches committed")
	}
}

func TestPolyPathArchEquivalence(t *testing.T) {
	cfg := DefaultConfig()
	m := runProg(t, sumProgram(500), cfg)
	if m.Stats.Divergences == 0 {
		t.Fatal("PolyPath on a data-dependent diamond should diverge")
	}
}

func TestPolyPathAlwaysLowArchEquivalence(t *testing.T) {
	// Maximal eagerness stresses context management hardest.
	cfg := DefaultConfig()
	cfg.Confidence.Kind = ConfAlwaysLow
	m := runProg(t, sumProgram(500), cfg)
	if m.Stats.Divergences == 0 {
		t.Fatal("always-low confidence must diverge")
	}
}

func TestDualPathArchEquivalence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxDivergences = 1
	m := runProg(t, sumProgram(500), cfg)
	if m.Stats.PathHist.FracAtMost(3) < 0.999 {
		t.Error("dual-path must never exceed 3 live paths")
	}
}

func TestOraclePredictorNoMispredicts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = Monopath
	cfg.Predictor.Kind = PredOracle
	cfg.Confidence.Kind = ConfAlwaysHigh
	m := runProg(t, sumProgram(500), cfg)
	if m.Stats.Mispredicts != 0 {
		t.Errorf("oracle predictor mispredicted %d times", m.Stats.Mispredicts)
	}
	if m.Stats.MonopathRecoveries != 0 {
		t.Errorf("oracle run performed %d recoveries", m.Stats.MonopathRecoveries)
	}
}

func TestOracleConfidenceDivergesOnlyOnMispredicts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Confidence.Kind = ConfOracle
	m := runProg(t, sumProgram(500), cfg)
	// With a perfect estimator, every committed low-confidence branch is a
	// misprediction: PVN = 1.
	if m.Stats.LowConf > 0 && m.Stats.PVN() < 0.999 {
		t.Errorf("oracle confidence PVN = %.3f, want 1.0", m.Stats.PVN())
	}
	if m.Stats.HighConfMispred != 0 {
		t.Errorf("oracle confidence missed %d mispredictions", m.Stats.HighConfMispred)
	}
}

func TestWorkloadSuiteArchEquivalence(t *testing.T) {
	// Every suite benchmark, both modes, must commit the exact functional
	// execution. This is the repo's core execution-driven correctness
	// claim; it exercises divergence, subtree kills, recovery, store
	// forwarding and context-tag reuse under real pressure.
	for _, bm := range workload.Suite(60_000) {
		bm := bm
		t.Run(bm.Spec.Name, func(t *testing.T) {
			t.Parallel()
			p, err := workload.Generate(bm.Spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []struct {
				name string
				cfg  func() Config
			}{
				{"monopath", func() Config {
					c := DefaultConfig()
					c.Mode = Monopath
					c.Confidence.Kind = ConfAlwaysHigh
					return c
				}},
				{"polypath", DefaultConfig},
				{"dualpath", func() Config {
					c := DefaultConfig()
					c.MaxDivergences = 1
					return c
				}},
			} {
				m := runProg(t, p, mode.cfg())
				if m.Stats.IPC() <= 0 {
					t.Errorf("%s: non-positive IPC", mode.name)
				}
			}
		})
	}
}

func TestMaxInstsCutsExactly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInsts = 1000
	m := runProg(t, sumProgram(500), cfg)
	if m.Stats.Committed != 1000 {
		t.Errorf("committed %d, want exactly 1000", m.Stats.Committed)
	}
}

func TestConfigValidation(t *testing.T) {
	p := sumProgram(10)
	bad := []func(*Config){
		func(c *Config) { c.FetchWidth = 0 },
		func(c *Config) { c.FrontEndStages = 0 },
		func(c *Config) { c.WindowSize = 2 },
		func(c *Config) { c.NumIntType1 = 0 },
		func(c *Config) { c.PhysRegs = 40 },
		func(c *Config) { c.CtxHistoryWidth = 0 },
		func(c *Config) { c.MaxPaths = 1 },
		func(c *Config) { c.MaxDivergences = -1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(p, cfg); err == nil {
			t.Errorf("config %d: expected validation error", i)
		}
	}
}

// TestPhysRegsBound pins the register-number bound: a rename.PhysReg is
// 16 bits and the sentinel register takes number PhysRegs, so 65535 is
// the largest register file normalize accepts. A machine at that edge
// runs under the per-cycle audit, which checks the sentinel.
func TestPhysRegsBound(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PhysRegs = 65536
	var ce *ConfigError
	if _, err := cfg.normalize(); !errors.As(err, &ce) || ce.Field != "PhysRegs" {
		t.Fatalf("PhysRegs 65536: want a *ConfigError on PhysRegs, got %v", err)
	}
	cfg.PhysRegs = 65535
	if _, err := cfg.normalize(); err != nil {
		t.Fatalf("PhysRegs 65535 refused: %v", err)
	}
	cfg.Audit = AuditCycle
	m := runProg(t, sumProgram(10), cfg)
	if m.unreadReg != 65535 {
		t.Fatalf("sentinel is p%d, want p65535", m.unreadReg)
	}
}

func TestNonHaltingProgramRejected(t *testing.T) {
	p := &isa.Program{
		Name: "spin", MemWords: 2,
		Code: []isa.Inst{{Op: isa.Jmp, Target: 0}, {Op: isa.Halt}},
	}
	if _, err := New(p, DefaultConfig()); err == nil {
		t.Error("expected error for non-halting program without MaxInsts")
	}
	cfg := DefaultConfig()
	cfg.MaxInsts = 100
	m, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Committed != 100 {
		t.Errorf("committed %d, want 100", m.Stats.Committed)
	}
}

func TestPipelineDepthAccessor(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.PipelineDepth() != 8 {
		t.Errorf("baseline depth = %d, want 8 (paper)", cfg.PipelineDepth())
	}
}
