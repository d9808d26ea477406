package pipeline

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/workload"
)

// diamondProgram builds a program whose single hot branch depends on
// Bernoulli(bias) data and whose arms write different values — the
// smallest program where wrong-path execution visibly computes wrong
// values that must never commit.
func diamondProgram(iters int, bias float64) *isa.Program {
	p, err := workload.Generate(workload.Spec{
		Name: "diamond", Seed: 9,
		TargetInsts: uint64(iters),
		Branches:    []workload.BranchSpec{{Kind: workload.KindBernoulli, Bias: bias}},
		BlockLen:    6, Chains: 4,
		LoadFrac: 0.2, StoreFrac: 0.1, PredDepth: 4,
	})
	if err != nil {
		panic(err)
	}
	return p
}

func TestDivergenceCreatesAndResolvesPaths(t *testing.T) {
	cfg := DefaultConfig()
	m, err := New(diamondProgram(30_000, 0.5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyArchState(); err != nil {
		t.Fatal(err)
	}
	s := &m.Stats
	if s.Divergences == 0 {
		t.Fatal("expected divergences on a random branch")
	}
	if s.WrongSubtreeKills == 0 {
		t.Error("every resolved divergence should kill a subtree")
	}
	// At the end, all context resources must be recycled.
	if m.ctxAlloc.InUse() != 0 {
		t.Errorf("history positions leaked: %d in use", m.ctxAlloc.InUse())
	}
	if m.divergences != 0 {
		t.Errorf("divergence counter leaked: %d", m.divergences)
	}
	if live := m.livePathCount(); live != 1 {
		t.Errorf("paths leaked: %d live at halt", live)
	}
	if m.ckpts.Available() != m.ckpts.Capacity() {
		t.Errorf("checkpoints leaked: %d/%d free", m.ckpts.Available(), m.ckpts.Capacity())
	}
}

func TestPhysicalRegistersConserved(t *testing.T) {
	for _, kind := range []ConfidenceKind{ConfAlwaysHigh, ConfJRS, ConfAlwaysLow} {
		cfg := DefaultConfig()
		cfg.Confidence.Kind = kind
		m, err := New(diamondProgram(30_000, 0.5), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatalf("kind %q: %v", kind, err)
		}
		// Every in-flight allocation is freed at kill or commit; at halt
		// the only live registers are the 32 named by the retirement map.
		if got := m.freeList.InUse(); got != isa.NumRegs {
			t.Errorf("kind %q: %d physical registers in use at halt, want %d", kind, got, isa.NumRegs)
		}
	}
}

func TestWrongPathValuesNeverCommit(t *testing.T) {
	// Run with maximal eagerness and a 50/50 branch: wrong arms execute
	// constantly. VerifyArchState (bit-exact vs the interpreter) is the
	// assertion; this test exists to pin the scenario explicitly.
	cfg := DefaultConfig()
	cfg.Confidence.Kind = ConfAlwaysLow
	m, err := New(diamondProgram(40_000, 0.5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyArchState(); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Killed == 0 {
		t.Error("eager execution must kill wrong-path instructions")
	}
}

func TestStoreForwardingStaysOnPath(t *testing.T) {
	// A program where each diamond arm stores a different value to the
	// same address and then loads it back: forwarding across sibling
	// paths would commit the wrong value, so architectural verification
	// doubles as the CTX-filter check. Build it by hand for precision.
	b := workload.NewBuilder("fwd")
	base, data := b.Alloc(256)
	for i := range data {
		if i%2 == 0 {
			data[i] = 1
		}
	}
	cell, _ := b.Alloc(1) // the contested address
	acc, _ := b.Alloc(1)
	b.Li(1, 0)   // i
	b.Li(2, 200) // n
	b.Li(3, 0)   // acc value
	b.Label("top")
	b.Load(4, 1, base) // pseudo-random 0/1
	b.Branch(isa.Bne, 4, 0, "odd")
	// even arm: cell = 111; acc += cell
	b.Li(5, 111)
	b.Store(5, 0, cell)
	b.Load(6, 0, cell)
	b.Op3(isa.Add, 3, 3, 6)
	b.Jump("next")
	b.Label("odd")
	// odd arm: cell = 222; acc += cell
	b.Li(5, 222)
	b.Store(5, 0, cell)
	b.Load(6, 0, cell)
	b.Op3(isa.Add, 3, 3, 6)
	b.Label("next")
	b.OpI(isa.Addi, 1, 1, 1)
	b.Branch(isa.Blt, 1, 2, "top")
	b.Store(3, 0, acc)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.Confidence.Kind = ConfAlwaysLow // force divergence at every branch
	m, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyArchState(); err != nil {
		t.Fatalf("cross-path forwarding corrupted state: %v", err)
	}
	if m.Stats.StoreForwards == 0 {
		t.Error("scenario should exercise store-to-load forwarding")
	}
	// acc = 100*111 + 100*222 (alternating data) = 33300.
	if got := m.Memory().Load(int(acc)); got != 33300 {
		t.Errorf("acc = %d, want 33300", got)
	}
}

func TestContextResourceExhaustionFallsBackToMonopath(t *testing.T) {
	// With a single history position, at most one divergence can be in
	// flight; further low-confidence branches must proceed monopath-style
	// (DivergenceBlocked) rather than deadlocking.
	cfg := DefaultConfig()
	cfg.CtxHistoryWidth = 1
	cfg.Confidence.Kind = ConfAlwaysLow
	m, err := New(diamondProgram(30_000, 0.5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyArchState(); err != nil {
		t.Fatal(err)
	}
	if m.Stats.DivergenceBlocked == 0 {
		t.Error("expected blocked divergences with one history position")
	}
	if m.Stats.PathHist.FracAtMost(3) < 0.999 {
		t.Error("one history position allows at most 3 simultaneous paths")
	}
}

func TestDualPathRestrictsDivergences(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxDivergences = 1
	cfg.Confidence.Kind = ConfAlwaysLow
	m, err := New(diamondProgram(30_000, 0.5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// One divergence means at most 3 fetch-relevant paths (paper Sec. 5.2);
	// the CTX table may briefly hold an extra draining parent context whose
	// older instructions are still in flight.
	if m.Stats.PathHist.FracAtMost(4) < 0.99 {
		t.Error("dual-path must cap live paths at 3 (+1 draining context)")
	}
	if m.Stats.PathHist.FracAtMost(3) < 0.75 {
		t.Error("dual-path should run with <=3 paths most of the time")
	}
	if m.Stats.DivergenceBlocked == 0 {
		t.Error("dual-path should block divergences while one is in flight")
	}
}

func TestTinyCheckpointPoolStallsButCompletes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Checkpoints = 2
	m, err := New(diamondProgram(20_000, 0.5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyArchState(); err != nil {
		t.Fatal(err)
	}
}

func TestTinyPhysRegFileStallsButCompletes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WindowSize = 32
	cfg.PhysRegs = 72 // barely above 32 logical + 32 window
	cfg.Checkpoints = 8
	m, err := New(diamondProgram(20_000, 0.5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyArchState(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundRobinFetchPolicy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FetchPolicy = FetchRoundRobin
	m, err := New(diamondProgram(30_000, 0.5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyArchState(); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Divergences == 0 {
		t.Error("round-robin run should still diverge")
	}
}

func TestNonSpeculativeHistoryRunsCorrectly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = Monopath
	cfg.Confidence.Kind = ConfAlwaysHigh
	cfg.NonSpeculativeHistory = true
	m, err := New(diamondProgram(30_000, 0.7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyArchState(); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveEstimatorEndToEnd(t *testing.T) {
	// m88ksim-like biased branches: the adaptive estimator should issue
	// markedly fewer divergences than plain JRS.
	prog := diamondProgram(60_000, 0.94)
	cfgJRS := DefaultConfig()
	cfgAd := DefaultConfig()
	cfgAd.Confidence.Kind = ConfAdaptive

	run := func(cfg Config) *Machine {
		m, err := New(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m
	}
	jrs := run(cfgJRS)
	ad := run(cfgAd)
	if ad.Stats.Divergences >= jrs.Stats.Divergences {
		t.Errorf("adaptive divergences %d should be below plain JRS %d on a low-PVN workload",
			ad.Stats.Divergences, jrs.Stats.Divergences)
	}
}

func TestStatsAccountingInvariants(t *testing.T) {
	cfg := DefaultConfig()
	m, err := New(diamondProgram(40_000, 0.5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	s := &m.Stats
	if s.Renamed > s.Fetched {
		t.Error("cannot rename more than fetched")
	}
	if s.Committed > s.Renamed {
		t.Error("cannot commit more than renamed")
	}
	if s.LowConfMispred > s.LowConf || s.LowConfMispred > s.Mispredicts {
		t.Error("low-confidence mispredict accounting")
	}
	if s.Mispredicts != s.LowConfMispred+s.HighConfMispred {
		t.Error("mispredicts must split into low/high confidence")
	}
	if s.TakenBranches > s.CondBranches {
		t.Error("taken branches exceed branches")
	}
	// All fetched instructions are eventually renamed+killed or still in
	// flight at halt; killed counts both window and front-end squashes.
	if s.Killed+s.Committed > s.Fetched {
		t.Error("killed+committed exceeds fetched")
	}
}

func TestWindowOccupancyBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WindowSize = 64
	m, err := New(diamondProgram(20_000, 0.5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Stats.WindowHist.FracAtMost(64) < 0.999 {
		t.Error("window occupancy exceeded its configured size")
	}
}

// TestDeterminism: identical configs and programs must produce identical
// cycle counts and statistics (the simulator is single-threaded and
// seeded; any nondeterminism is a bug, e.g. map-iteration order leaking
// into simulation decisions).
func TestDeterminism(t *testing.T) {
	prog := diamondProgram(30_000, 0.5)
	run := func() runFingerprint {
		m, err := New(prog, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return runFingerprint{m.Stats.Cycles, m.Stats.Committed, m.Stats.Fetched, m.Stats.Divergences, m.Stats.Mispredicts}
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("nondeterministic simulation: %+v vs %+v", a, b)
	}
}

type runFingerprint struct{ cycles, committed, fetched, div, mis uint64 }

func TestResolutionBusLimit(t *testing.T) {
	prog := diamondProgram(20_000, 0.5)
	run := func(buses int) *Machine {
		cfg := DefaultConfig()
		cfg.ResolutionBuses = buses
		m, err := New(prog, cfg)
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
	unlimited := run(0)
	one := run(1)
	// A single resolution bus delays kills and recoveries; it must never
	// be faster than unlimited buses.
	if one.Stats.Cycles < unlimited.Stats.Cycles {
		t.Errorf("one bus (%d cycles) beat unlimited buses (%d cycles)",
			one.Stats.Cycles, unlimited.Stats.Cycles)
	}
}

func TestAlternatePredictorsEndToEnd(t *testing.T) {
	prog := diamondProgram(25_000, 0.7)
	for _, kind := range []PredictorKind{PredBimodal, PredStatic, PredLocal, PredCombining} {
		cfg := DefaultConfig()
		cfg.Predictor.Kind = kind
		m, err := New(prog, cfg)
		if err != nil {
			t.Fatalf("kind %q: %v", kind, err)
		}
		if err := m.Run(); err != nil {
			t.Fatalf("kind %q: %v", kind, err)
		}
		if err := m.VerifyArchState(); err != nil {
			t.Fatalf("kind %q: %v", kind, err)
		}
		if m.Stats.CondBranches == 0 {
			t.Fatalf("kind %q: no branches", kind)
		}
	}
}

func TestCycleAccounting(t *testing.T) {
	m, err := New(diamondProgram(20_000, 0.5), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	s := &m.Stats
	zeroCommit := s.CommitHist.Bucket(0)
	if zeroCommit != s.StallEmptyWindow+s.StallExecution {
		t.Errorf("stall taxonomy (%d+%d) must cover zero-commit cycles (%d)",
			s.StallEmptyWindow, s.StallExecution, zeroCommit)
	}
	if s.CommitHist.Samples() == 0 {
		t.Error("commit histogram not sampled")
	}
	// Average commits/cycle must equal IPC (same numerator/denominator,
	// modulo the final halting cycle).
	if diff := s.CommitHist.Mean() - s.IPC(); diff > 0.1 || diff < -0.1 {
		t.Errorf("commit histogram mean %.3f far from IPC %.3f", s.CommitHist.Mean(), s.IPC())
	}
}

func TestMRCArchEquivalenceAndBenefit(t *testing.T) {
	// MRC is a timing optimization only: committed state must be exact,
	// and with a hot cache it should not be slower than plain monopath
	// on a misprediction-heavy workload that revisits recovery targets.
	prog := diamondProgram(40_000, 0.5)
	run := func(mrcOn bool) *Machine {
		cfg := DefaultConfig()
		cfg.Mode = Monopath
		cfg.Confidence.Kind = ConfAlwaysHigh
		cfg.EnableMRC = mrcOn
		m, err := New(prog, cfg)
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
	plain := run(false)
	mrc := run(true)
	if mrc.Stats.MRCInjections == 0 {
		t.Fatal("MRC never injected on a misprediction-heavy loop")
	}
	if mrc.Stats.IPC() < plain.Stats.IPC()*0.98 {
		t.Errorf("MRC should not hurt: %.3f vs %.3f", mrc.Stats.IPC(), plain.Stats.IPC())
	}
	t.Logf("monopath %.3f IPC, +MRC %.3f IPC (%d injections)",
		plain.Stats.IPC(), mrc.Stats.IPC(), mrc.Stats.MRCInjections)
}

func TestMRCWithSEE(t *testing.T) {
	// MRC and SEE compose: SEE removes penalties for caught divergences,
	// MRC shortens the rest. State must stay exact.
	prog := diamondProgram(30_000, 0.5)
	cfg := DefaultConfig()
	cfg.EnableMRC = true
	m, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyArchState(); err != nil {
		t.Fatal(err)
	}
}
