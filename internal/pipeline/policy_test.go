package pipeline

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/policy"
	"repro/internal/workload"
)

// policyTestProg generates a small branchy workload for the policy tests.
func policyTestProg(t *testing.T, name string, insts uint64) *workload.Benchmark {
	t.Helper()
	bm, err := workload.ByName(name, insts)
	if err != nil {
		t.Fatal(err)
	}
	return &bm
}

func runWithPolicy(t *testing.T, name string, insts uint64, audit AuditLevel, spec PolicySpec) *Machine {
	t.Helper()
	bm := policyTestProg(t, name, insts)
	prog, err := workload.Generate(bm.Spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Audit = audit
	cfg.Policy = spec
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

// TestOnlineSingleCandidateEqualsStatic is the metamorphic identity of the
// controller framework: an online bandit with exactly one candidate has no
// choice to make, so its run must be indistinguishable from the static
// controller pinning that candidate — identical committed work, cycle
// count, epoch-IPC series, zero switches, and an otherwise byte-identical
// statistics block.
func TestOnlineSingleCandidateEqualsStatic(t *testing.T) {
	see, _ := policy.PresetSetting("see")
	static := runWithPolicy(t, "gcc", 20000, AuditOff, PolicySpec{
		Kind: "static", EpochCycles: 256, Candidates: []policy.Setting{see},
	})
	online := runWithPolicy(t, "gcc", 20000, AuditOff, PolicySpec{
		Kind: "online", EpochCycles: 256, Candidates: []policy.Setting{see},
	})
	if online.Stats.PolicySwitches != 0 {
		t.Errorf("single-candidate online switched %d times", online.Stats.PolicySwitches)
	}
	if !reflect.DeepEqual(static.Stats, online.Stats) {
		t.Errorf("single-candidate online diverged from static:\n static %+v\n online %+v",
			static.Stats, online.Stats)
	}
}

// TestStaticPolicyEqualsBareMachine: wrapping the machine's own configured
// behaviour in a static policy (the all-zero "configured" setting) must not
// perturb the simulation — the policy layer only observes. Everything
// except the policy-only observability fields must match a policy-free run.
func TestStaticPolicyEqualsBareMachine(t *testing.T) {
	bare := runWithPolicy(t, "go", 20000, AuditOff, PolicySpec{})
	wrapped := runWithPolicy(t, "go", 20000, AuditOff, PolicySpec{
		Kind: "static", EpochCycles: 256,
	})
	ws := wrapped.Stats
	if len(ws.EpochIPC) == 0 {
		t.Fatalf("policy run recorded no epochs")
	}
	ws.EpochIPC = nil
	ws.PolicySwitches = 0
	if !reflect.DeepEqual(bare.Stats, ws) {
		t.Errorf("static policy perturbed the machine:\n bare    %+v\n wrapped %+v", bare.Stats, ws)
	}
}

// TestEpochLongerThanRun: an epoch that never completes inside the run
// must still be accounted once, by the end-of-run finalization — one
// epoch-IPC sample covering the whole run.
func TestEpochLongerThanRun(t *testing.T) {
	m := runWithPolicy(t, "gcc", 5000, AuditCycle, PolicySpec{
		Kind: "static", EpochCycles: policy.MaxEpochCycles,
	})
	if len(m.Stats.EpochIPC) != 1 {
		t.Fatalf("EpochIPC = %v, want exactly one sample", m.Stats.EpochIPC)
	}
	if got, want := m.Stats.EpochIPC[0], m.Stats.IPC(); got != want {
		t.Errorf("sole epoch IPC %v, want whole-run IPC %v", got, want)
	}
}

// TestNoZeroLengthFinalEpoch: the number of epoch samples must be exactly
// ceil(cycles/epochCycles) — a run ending on an epoch boundary must not
// record a spurious empty final epoch, and a partial tail must be
// accounted exactly once.
func TestNoZeroLengthFinalEpoch(t *testing.T) {
	for _, ep := range []int{64, 100, 256, 1024} {
		m := runWithPolicy(t, "perl", 15000, AuditOff, PolicySpec{
			Kind: "static", EpochCycles: ep,
		})
		cycles := m.Cycle()
		want := int((cycles + uint64(ep) - 1) / uint64(ep))
		if got := len(m.Stats.EpochIPC); got != want {
			t.Errorf("epoch %d: %d samples over %d cycles, want ceil = %d", ep, got, cycles, want)
		}
	}
}

// TestSwitchWithLivePaths forces policy switches while divergent paths are
// in flight: an always-low confidence estimator keeps the path set full,
// and an oracle schedule alternates divergence-on/divergence-off every
// epoch (64 cycles, the minimum). Turning divergence off must only stop
// new forks — live paths keep executing and resolving — and the cycle-level
// invariant auditor plus architectural verification must stay clean
// through every transition, including switches landing mid-recovery.
func TestSwitchWithLivePaths(t *testing.T) {
	see, _ := policy.PresetSetting("see")
	mono, _ := policy.PresetSetting("monopath")
	sched := make([]int, 128)
	for i := range sched {
		sched[i] = i % 2
	}
	bm := policyTestProg(t, "go", 20000)
	prog, err := workload.Generate(bm.Spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Audit = AuditCycle
	cfg.Confidence.Kind = ConfAlwaysLow // every branch forks while allowed
	cfg.Policy = PolicySpec{
		Kind: "oracle", EpochCycles: policy.MinEpochCycles,
		Candidates: []policy.Setting{see, mono},
		Params:     policy.OracleParams(sched),
	}
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
	if m.Stats.PolicySwitches == 0 {
		t.Fatal("alternating oracle schedule produced no switches")
	}
	if m.Stats.Divergences == 0 {
		t.Fatal("always-low confidence produced no divergences")
	}

	// The identical run must also be bit-reproducible switch for switch.
	m2, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Stats, m2.Stats) {
		t.Errorf("policy-switching run is not deterministic:\n 1st %+v\n 2nd %+v", m.Stats, m2.Stats)
	}
}

// TestPolicyRejectsBadSpecs: malformed policy specs must be rejected at
// construction with the config-error pathway, not at runtime.
func TestPolicyRejectsBadSpecs(t *testing.T) {
	bad := []PolicySpec{
		{Kind: "no-such-controller"},
		{Kind: "static", EpochCycles: 1},                                    // below minimum
		{Kind: "static", Candidates: []policy.Setting{{ConfThreshold: -2}}}, // bad knob
		{Kind: "online"},                                                    // needs candidates
		{Kind: "online", Candidates: []policy.Setting{{}}, Params: map[string]int{"bogus": 1}}, // unknown param
		{Kind: "oracle"}, // needs candidates
	}
	for _, spec := range bad {
		cfg := DefaultConfig()
		cfg.Policy = spec
		if _, err := New(nil, cfg); err == nil {
			t.Errorf("spec %+v: want construction error, got none", spec)
		}
	}
}

// TestPolicyFreeV2EncodingHasNoPolicyField pins the wire compatibility of
// the polypath/v2 extension: configs without a controller must encode to
// the exact same canonical v2 bytes as before the policy field existed
// (polyserve's result store byte-compares encodings).
func TestPolicyFreeV2EncodingHasNoPolicyField(t *testing.T) {
	blob, err := EncodeConfigV2(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(blob, []byte(`"policy"`)) {
		t.Errorf("policy-free v2 encoding grew a policy field: %s", blob)
	}
}

// TestPolicyConfigV2RoundTrip: a policy-bearing config must round-trip
// through polypath/v2 as a fixed point, and its canonical hash is the one
// it had before the v1 write path was retired.
func TestPolicyConfigV2RoundTrip(t *testing.T) {
	see, _ := policy.PresetSetting("see")
	mono, _ := policy.PresetSetting("monopath")
	cfg := DefaultConfig()
	cfg.Policy = PolicySpec{
		Kind: "online", EpochCycles: 1024,
		Candidates: []policy.Setting{see, mono},
		Params:     map[string]int{"explore_every": 6, "shift_milli": 120},
	}
	v2, err := EncodeConfigV2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeConfig(v2)
	if err != nil {
		t.Fatal(err)
	}
	v2again, err := EncodeConfigV2(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v2, v2again) {
		t.Errorf("policy v2 encoding is not a fixed point\n 1st %s\n 2nd %s", v2, v2again)
	}
	h1, err := CanonicalHash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := CanonicalHash(back)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("v2 round trip changed the canonical hash: %s vs %s", h1, h2)
	}
	if want := "89192dbf61e9bad5f9e956b5f7b92aaad7b6e40729f91bc3c75e63554d022e67"; h1 != want {
		t.Errorf("policy config hash drifted\n got %s\nwant %s", h1, want)
	}
	if h0, _ := CanonicalHash(DefaultConfig()); h0 == h1 {
		t.Error("policy-bearing config hashed identically to the policy-free config")
	}
}
