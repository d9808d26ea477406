package pipeline

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/isa/progfuzz"
	"repro/internal/rename"
	"repro/internal/workload"
)

// naiveWalk is the obviously-correct form of walkBits: test every
// position in [lo, hi) in ascending order.
func naiveWalk(words []uint64, lo, hi int) []int {
	var got []int
	for pos := lo; pos < hi; pos++ {
		if words[pos>>6]&(1<<uint(pos&63)) != 0 {
			got = append(got, pos)
		}
	}
	return got
}

func collectWalk(words []uint64, lo, hi int) []int {
	var got []int
	walkBits(words, lo, hi, func(pos int) bool {
		got = append(got, pos)
		return true
	})
	return got
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWalkBitsExhaustiveBoundaries sweeps every (bit, lo, hi) combination
// for window sizes that land exactly on, one past, and well beyond the
// 64-slot word boundary — the off-by-one surface of the per-word masked
// walk. Every single-bit pattern must be reported iff it lies in [lo, hi).
func TestWalkBitsExhaustiveBoundaries(t *testing.T) {
	for _, n := range []int{63, 64, 65, 127, 128} {
		words := make([]uint64, (n+63)/64)
		for bit := 0; bit < n; bit++ {
			clear(words)
			words[bit>>6] |= 1 << uint(bit&63)
			for lo := 0; lo <= n; lo++ {
				for hi := lo; hi <= n; hi++ {
					got := collectWalk(words, lo, hi)
					inRange := bit >= lo && bit < hi
					switch {
					case inRange && (len(got) != 1 || got[0] != bit):
						t.Fatalf("n=%d bit=%d range [%d,%d): got %v, want [%d]", n, bit, lo, hi, got, bit)
					case !inRange && len(got) != 0:
						t.Fatalf("n=%d bit=%d range [%d,%d): got %v, want empty", n, bit, lo, hi, got)
					}
				}
			}
		}
	}
}

// TestWalkBitsRandomPatterns cross-checks the masked walk against the
// naive position scan on dense random bitmaps, including ranges that
// start and end mid-word, span word boundaries, and cover whole words.
func TestWalkBitsRandomPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, n := range []int{64, 65, 128, 192} {
		words := make([]uint64, (n+63)/64)
		for trial := 0; trial < 200; trial++ {
			for i := range words {
				words[i] = rng.Uint64()
			}
			lo := rng.Intn(n + 1)
			hi := lo + rng.Intn(n+1-lo)
			if got, want := collectWalk(words, lo, hi), naiveWalk(words, lo, hi); !intsEqual(got, want) {
				t.Fatalf("n=%d range [%d,%d): walk %v != naive %v", n, lo, hi, got, want)
			}
		}
	}
}

// TestWalkBitsEarlyStop verifies the callback's false return halts the
// walk immediately.
func TestWalkBitsEarlyStop(t *testing.T) {
	words := []uint64{^uint64(0), ^uint64(0)}
	var got []int
	walkBits(words, 0, 128, func(pos int) bool {
		got = append(got, pos)
		return len(got) < 3
	})
	if !intsEqual(got, []int{0, 1, 2}) {
		t.Fatalf("early stop yielded %v", got)
	}
}

// TestSoASelectOrderMatchesDequeScan is the scheduler-equivalence
// property test: with the audit hook armed, every issue cycle
// cross-checks the ready-bitmap walk against a naive oldest-first window
// scan applying the pre-SoA readiness predicate. Any ordering or
// membership divergence trips a machine check and fails the run. The
// suite workloads push divergence trees, kills, and store forwarding
// through the window; the fuzzed programs add irregular control flow.
func TestSoASelectOrderMatchesDequeScan(t *testing.T) {
	soaSelectAudit = true
	defer func() { soaSelectAudit = false }()

	insts := uint64(30_000)
	if testing.Short() {
		insts = 8_000
	}
	for _, bm := range workload.Suite(insts) {
		prog, err := workload.Generate(bm.Spec)
		if err != nil {
			t.Fatal(err)
		}
		for name, cfg := range auditConfigs() {
			m, err := New(prog, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", bm.Spec.Name, name, err)
			}
			if err := m.Run(); err != nil {
				t.Fatalf("%s/%s: select order diverged: %v", bm.Spec.Name, name, err)
			}
			if err := m.VerifyArchState(); err != nil {
				t.Fatalf("%s/%s: %v", bm.Spec.Name, name, err)
			}
		}
	}

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		prog := progfuzz.Generate(rng, 120)
		cfg := DefaultConfig()
		cfg.MaxInsts = 15_000
		m, err := New(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatalf("fuzz program %d: select order diverged: %v", i, err)
		}
	}
}

// statKey is the statistics slice used for bit-identical comparisons.
type statKey struct {
	cycles, committed, killed uint64
	mispred, divergences      uint64
	forwards, loads           uint64
	dAcc, dMiss               uint64
	indirect, indirectMiss    uint64
}

func keyOf(m *Machine) statKey {
	return statKey{
		cycles:       m.Stats.Cycles,
		committed:    m.Stats.Committed,
		killed:       m.Stats.Killed,
		mispred:      m.Stats.Mispredicts,
		divergences:  m.Stats.Divergences,
		forwards:     m.Stats.StoreForwards,
		loads:        m.Stats.LoadsExecuted,
		dAcc:         m.Stats.DCacheAccesses,
		dMiss:        m.Stats.DCacheMisses,
		indirect:     m.Stats.IndirectJumps,
		indirectMiss: m.Stats.IndirectMispredicts,
	}
}

// TestArenaRecyclingBitIdentical runs a mixed cell sequence — different
// programs AND different machine shapes (window, register file, CTX
// table, RAS depth) back to back — twice: once allocating fresh, once
// recycling through a single shared arena. Every cell must produce
// bit-identical statistics, which means every arena-drawn buffer was
// reset exactly like a fresh allocation even when a larger previous
// machine donated it. The call/return program makes the CTX slots' stacks
// and the pooled entries' snapshot buffers live. The sequence changes the
// RAS depth while the CTX table shrinks and then grows again, so slots
// past a narrow machine's MaxPaths come back with stacks sized for an
// earlier machine and must be resized.
func TestArenaRecyclingBitIdentical(t *testing.T) {
	small := DefaultConfig()
	small.WindowSize = 32
	small.PhysRegs = 80
	small.Checkpoints = 8
	small.MaxPaths = 4
	small.CtxHistoryWidth = 3
	shallow := DefaultConfig()
	shallow.RASDepth = 4
	narrow := DefaultConfig()
	narrow.MaxPaths = 4
	narrow.RASDepth = 4

	progs := []struct {
		name string
		prog *isa.Program
	}{
		{"sum-large", sumProgram(400)},
		{"call", callProgram(3000)},
		{"sum-small", sumProgram(50)},
		{"sum-mid", sumProgram(200)},
	}
	cfgs := map[string]Config{
		"default": DefaultConfig(),
		"small":   small,
		"shallow": shallow,
		"narrow":  narrow,
	}

	run := func(a *Arena) []statKey {
		var keys []statKey
		for _, p := range progs {
			prog := p.prog
			for _, cn := range []string{"default", "narrow", "shallow", "small", "default"} {
				m, err := NewWithArena(prog, cfgs[cn], a)
				if err != nil {
					t.Fatalf("%s/%s: %v", p.name, cn, err)
				}
				if err := m.Run(); err != nil {
					t.Fatalf("%s/%s: %v", p.name, cn, err)
				}
				if err := m.VerifyArchState(); err != nil {
					t.Fatalf("%s/%s: %v", p.name, cn, err)
				}
				keys = append(keys, keyOf(m))
				m.Recycle(a)
			}
		}
		return keys
	}

	fresh := run(nil) // Recycle(nil) is a no-op: every cell allocates
	recycled := run(NewArena())
	if len(fresh) != len(recycled) {
		t.Fatalf("cell count mismatch: %d vs %d", len(fresh), len(recycled))
	}
	for i := range fresh {
		if fresh[i] != recycled[i] {
			t.Fatalf("cell %d diverged under arena recycling:\nfresh    %+v\nrecycled %+v", i, fresh[i], recycled[i])
		}
	}
}

// TestRecycleGutsMachine documents the Recycle contract: the donated
// machine must fail loudly on reuse rather than corrupt the arena's next
// tenant.
func TestRecycleGutsMachine(t *testing.T) {
	m, err := New(sumProgram(50), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	a := NewArena()
	m.Recycle(a)
	if !m.halted {
		t.Fatal("recycled machine should read as halted")
	}
	if m.winBuf != nil || m.mem != nil || m.physReady.Len() != 0 {
		t.Fatal("recycled machine retained donated buffers")
	}

	// The arena must now serve a machine of a different shape correctly.
	cfg := DefaultConfig()
	cfg.WindowSize = 32
	cfg.PhysRegs = 80
	cfg.Checkpoints = 8
	cfg.MaxPaths = 4
	cfg.CtxHistoryWidth = 3
	m2, err := NewWithArena(sumProgram(80), cfg, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Run(); err != nil {
		t.Fatal(err)
	}
	if err := m2.VerifyArchState(); err != nil {
		t.Fatal(err)
	}
}

// TestReadySetBasics covers the packed readiness bitmap at its word
// boundaries, Test and Bit alike, including capacity-reusing
// reinitialization.
func TestReadySetBasics(t *testing.T) {
	s := rename.NewReadySet(130)
	for _, p := range []rename.PhysReg{0, 63, 64, 127, 128, 129} {
		if s.Test(p) || s.Bit(p) != 0 {
			t.Fatalf("fresh set has p%d ready", p)
		}
		s.Set(p)
		if !s.Test(p) || s.Bit(p) != 1 {
			t.Fatalf("p%d not ready after Set", p)
		}
	}
	s.Clear(64)
	if s.Test(64) || s.Bit(64) != 0 {
		t.Fatal("p64 ready after Clear")
	}
	if s.Test(63) != true || s.Test(128) != true {
		t.Fatal("Clear(64) disturbed neighboring words")
	}

	// Reuse shrinks and clears.
	r := rename.ReuseReadySet(s, 70)
	if r.Len() != 70 {
		t.Fatalf("reused set covers %d regs, want 70", r.Len())
	}
	for p := rename.PhysReg(0); p < 70; p++ {
		if r.Test(p) {
			t.Fatalf("reused set has stale ready bit p%d", p)
		}
	}
	// Reuse beyond capacity allocates fresh.
	big := rename.ReuseReadySet(r, 1024)
	if big.Len() != 1024 {
		t.Fatalf("grown set covers %d regs, want 1024", big.Len())
	}
	big.Set(1023)
	if !big.Test(1023) {
		t.Fatal("grown set lost Set(1023)")
	}
}
