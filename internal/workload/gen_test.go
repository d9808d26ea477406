package workload

import (
	"slices"
	"testing"

	"repro/internal/isa"
)

func smallSpec() Spec {
	return Spec{
		Name: "small", Seed: 1, TargetInsts: 20_000,
		Branches: []BranchSpec{
			{Kind: KindBernoulli, Bias: 0.5},
			{Kind: KindPattern, Period: 4},
			{Kind: KindLoop, Trip: 4},
		},
		BlockLen: 4, Chains: 4,
		LoadFrac: 0.2, StoreFrac: 0.1,
	}
}

func TestGenerateProducesValidHaltingProgram(t *testing.T) {
	p, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	it := isa.NewInterp(p)
	if err := it.Run(1 << 22); err != nil {
		t.Fatal(err)
	}
	if !it.Halted {
		t.Fatal("generated program did not halt")
	}
}

func TestGenerateHitsInstructionTarget(t *testing.T) {
	for _, target := range []uint64{20_000, 100_000} {
		spec := smallSpec()
		spec.TargetInsts = target
		p, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		it := isa.NewInterp(p)
		if err := it.Run(1 << 24); err != nil {
			t.Fatal(err)
		}
		got := float64(it.InstCount)
		if got < 0.7*float64(target) || got > 1.3*float64(target) {
			t.Errorf("target %d: executed %d instructions (outside 30%% band)", target, it.InstCount)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p1, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Code) != len(p2.Code) {
		t.Fatal("non-deterministic code size")
	}
	for i := range p1.Code {
		if p1.Code[i] != p2.Code[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
	if !slices.Equal(p1.Packed, p2.Packed) {
		t.Fatal("non-deterministic packed streams")
	}
	for i := range p1.DataInit {
		if p1.DataInit[i] != p2.DataInit[i] {
			t.Fatalf("data word %d differs", i)
		}
	}
}

func TestGenerateBranchBiasRealized(t *testing.T) {
	// A single Bernoulli(0.8) branch: its dynamic taken rate must be ~0.8.
	spec := Spec{
		Name: "bias", Seed: 3, TargetInsts: 60_000,
		Branches: []BranchSpec{{Kind: KindBernoulli, Bias: 0.8}},
		BlockLen: 3, Chains: 2,
	}
	p, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := isa.Trace(p, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	// The generated program has two static branch sites: the Bernoulli
	// diamond and the outer loop back-edge. Identify the diamond as the
	// site whose taken rate is far from 1.
	taken := map[int32]int{}
	total := map[int32]int{}
	for _, r := range recs {
		total[r.PC]++
		if r.Taken {
			taken[r.PC]++
		}
	}
	found := false
	for pc, n := range total {
		rate := float64(taken[pc]) / float64(n)
		if rate > 0.99 { // outer loop
			continue
		}
		found = true
		if rate < 0.75 || rate > 0.85 {
			t.Errorf("bernoulli branch@%d taken rate %.3f, want ~0.8", pc, rate)
		}
	}
	if !found {
		t.Error("no bernoulli branch site found in trace")
	}
}

func TestGeneratePatternPeriodRealized(t *testing.T) {
	spec := Spec{
		Name: "pat", Seed: 4, TargetInsts: 30_000,
		Branches: []BranchSpec{{Kind: KindPattern, Period: 4}},
		BlockLen: 2, Chains: 2,
	}
	p, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := isa.Trace(p, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	// The pattern site is the non-loop site; it must produce TTTN repeats.
	var outcomes []bool
	var patPC int32 = -1
	total := map[int32]int{}
	taken := map[int32]int{}
	for _, r := range recs {
		total[r.PC]++
		if r.Taken {
			taken[r.PC]++
		}
	}
	for pc, n := range total {
		rate := float64(taken[pc]) / float64(n)
		if rate > 0.70 && rate < 0.80 { // 3/4 taken
			patPC = pc
		}
	}
	if patPC < 0 {
		t.Fatal("pattern branch site not found (expected ~75% taken)")
	}
	for _, r := range recs {
		if r.PC == patPC {
			outcomes = append(outcomes, r.Taken)
		}
	}
	for i := 0; i+4 <= len(outcomes)-4; i += 4 {
		window := outcomes[i : i+4]
		want := []bool{true, true, true, false}
		for j := range window {
			if window[j] != want[j] {
				t.Fatalf("pattern broken at occurrence %d: %v", i, window)
			}
		}
	}
}

func TestGenerateLoopTripRealized(t *testing.T) {
	spec := Spec{
		Name: "loop", Seed: 5, TargetInsts: 30_000,
		Branches: []BranchSpec{{Kind: KindLoop, Trip: 6}},
		BlockLen: 2, Chains: 2,
	}
	p, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := isa.Trace(p, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	// Inner-loop back edge: taken 5 of 6. Find a site with rate ~5/6 and
	// check consecutive runs of 5 takens then a not-taken.
	total := map[int32]int{}
	taken := map[int32]int{}
	for _, r := range recs {
		total[r.PC]++
		if r.Taken {
			taken[r.PC]++
		}
	}
	var loopPC int32 = -1
	for pc, n := range total {
		rate := float64(taken[pc]) / float64(n)
		if rate > 0.80 && rate < 0.87 {
			loopPC = pc
		}
	}
	if loopPC < 0 {
		t.Fatal("loop back-edge not found (expected ~83% taken)")
	}
	run := 0
	for _, r := range recs {
		if r.PC != loopPC {
			continue
		}
		if r.Taken {
			run++
			if run > 5 {
				t.Fatal("loop runs longer than trip count")
			}
		} else {
			if run != 5 {
				t.Fatalf("loop exited after %d takens, want 5", run)
			}
			run = 0
		}
	}
}

func TestGenerateSpecValidation(t *testing.T) {
	bad := []Spec{
		{Name: "a", TargetInsts: 0, Branches: []BranchSpec{{Kind: KindLoop, Trip: 4}}, BlockLen: 1, Chains: 1},
		{Name: "b", TargetInsts: 100, Branches: nil, BlockLen: 1, Chains: 1},
		{Name: "c", TargetInsts: 100, Branches: []BranchSpec{{Kind: KindBernoulli, Bias: 1.5}}, BlockLen: 1, Chains: 1},
		{Name: "d", TargetInsts: 100, Branches: []BranchSpec{{Kind: KindPattern, Period: 1}}, BlockLen: 1, Chains: 1},
		{Name: "e", TargetInsts: 100, Branches: []BranchSpec{{Kind: KindLoop, Trip: 1}}, BlockLen: 1, Chains: 1},
		{Name: "f", TargetInsts: 100, Branches: []BranchSpec{{Kind: KindLoop, Trip: 4}}, BlockLen: 1, Chains: 99},
		{Name: "g", TargetInsts: 100, Branches: []BranchSpec{{Kind: KindLoop, Trip: 4}}, BlockLen: 0, Chains: 1},
		{Name: "h", TargetInsts: 100, Branches: []BranchSpec{{Kind: BranchKind(99)}}, BlockLen: 1, Chains: 1},
	}
	for _, s := range bad {
		if _, err := Generate(s); err == nil {
			t.Errorf("spec %s: expected validation error", s.Name)
		}
	}
}

func TestMustGeneratePanicsOnBadSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustGenerate(Spec{Name: "bad"})
}

func TestSuiteCompleteAndRunnable(t *testing.T) {
	s := Suite(30_000)
	if len(s) != 8 {
		t.Fatalf("suite has %d benchmarks, want 8", len(s))
	}
	names := Names()
	wantNames := []string{"compress", "gcc", "perl", "go", "m88ksim", "xlisp", "vortex", "jpeg"}
	for i, w := range wantNames {
		if names[i] != w {
			t.Errorf("suite[%d] = %s, want %s (Table 1 order)", i, names[i], w)
		}
	}
	for _, b := range s {
		p, err := Generate(b.Spec)
		if err != nil {
			t.Fatalf("%s: %v", b.Spec.Name, err)
		}
		it := isa.NewInterp(p)
		if err := it.Run(1 << 22); err != nil {
			t.Fatalf("%s: %v", b.Spec.Name, err)
		}
		if !it.Halted {
			t.Errorf("%s did not halt", b.Spec.Name)
		}
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("go", 1000)
	if err != nil || b.Spec.Name != "go" {
		t.Errorf("ByName(go) = %v, %v", b.Spec.Name, err)
	}
	if _, err := ByName("nonesuch", 1000); err == nil {
		t.Error("expected error for unknown benchmark")
	}
}

func TestSuiteDefaultTarget(t *testing.T) {
	s := Suite(0)
	if s[0].Spec.TargetInsts != DefaultTargetInsts {
		t.Errorf("default target = %d", s[0].Spec.TargetInsts)
	}
}

func TestGenerateSwitchRealized(t *testing.T) {
	spec := Spec{
		Name: "sw", Seed: 21, TargetInsts: 30_000,
		Branches: []BranchSpec{{Kind: KindSwitch, Fanout: 4}},
		BlockLen: 4, Chains: 2,
	}
	p, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The program must contain exactly one indirect jump and a 4-entry
	// jump table whose words are valid case addresses.
	jri := 0
	for _, in := range p.Code {
		if in.Op == isa.Jri {
			jri++
		}
	}
	if jri != 1 {
		t.Fatalf("expected 1 jri, found %d", jri)
	}
	// Functional run distributes executions across all cases.
	recs, final, err := isa.Trace(p, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Halted {
		t.Fatal("switch program did not halt")
	}
	targets := map[int32]int{}
	for _, r := range recs {
		if r.Indirect {
			targets[r.Target]++
		}
	}
	if len(targets) != 4 {
		t.Fatalf("observed %d distinct switch targets, want 4", len(targets))
	}
	total := 0
	for _, n := range targets {
		total += n
	}
	for tgt, n := range targets {
		frac := float64(n) / float64(total)
		if frac < 0.15 || frac > 0.35 {
			t.Errorf("case @%d frequency %.2f, want ~0.25 (uniform)", tgt, frac)
		}
	}
}

func TestBuilderDataLabel(t *testing.T) {
	b := NewBuilder("dl")
	addr := b.DataLabel("tgt")
	b.Li(1, addr)
	b.Load(2, 1, 0)
	b.Emit(isa.Inst{Op: isa.Jri, Src1: 2})
	b.Li(3, 99) // skipped by the jump
	b.Label("tgt")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	it := isa.NewInterp(p)
	if err := it.Run(100); err != nil {
		t.Fatal(err)
	}
	if !it.Halted || it.Regs[3] != 0 {
		t.Errorf("indirect jump through data label failed: halted=%v r3=%d", it.Halted, it.Regs[3])
	}
}

func TestBuilderDataLabelUndefined(t *testing.T) {
	b := NewBuilder("dlu")
	b.DataLabel("nowhere")
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Error("expected undefined data label error")
	}
}

// TestSeedStability guards against seed-overfitting: the headline SEE
// result (go gains substantially) must hold across workload seeds, not
// just the one shipped in the suite.
func TestSeedStability(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed simulation")
	}
	bm, err := ByName("go", 150_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{104, 1004, 20104} {
		spec := bm.Spec
		spec.Seed = seed
		p, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		rate, _, err := GshareMispredictRate(p, 11, 1<<22)
		if err != nil {
			t.Fatal(err)
		}
		if rate < 0.15 || rate > 0.35 {
			t.Errorf("seed %d: go misprediction rate %.3f outside stable band", seed, rate)
		}
	}
}
