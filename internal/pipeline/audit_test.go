package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/ctxtag"
	"repro/internal/isa"
	"repro/internal/isa/progfuzz"
	"repro/internal/workload"
)

// auditConfigs returns machine variants that exercise every major
// micro-architectural mechanism the auditor sweeps: monopath recovery,
// selective eager execution, dual-path, deep divergence trees, and the
// cache/MRC extensions.
func auditConfigs() map[string]Config {
	mono := DefaultConfig()
	mono.Mode = Monopath
	mono.Confidence.Kind = ConfAlwaysHigh

	see := DefaultConfig()

	dual := DefaultConfig()
	dual.MaxDivergences = 1

	small := DefaultConfig()
	small.WindowSize = 32
	small.PhysRegs = 80
	small.Checkpoints = 8
	small.MaxPaths = 4
	small.CtxHistoryWidth = 3

	caches := DefaultConfig()
	caches.EnableDCache = true
	caches.DCache = cache.Config{Sets: 32, Ways: 2, LineWords: 8}
	caches.DCacheMissLatency = 12
	caches.EnableICache = true
	caches.ICache = cache.Config{Sets: 64, Ways: 2, LineWords: 8}
	caches.ICacheMissLatency = 12
	caches.EnableMRC = true

	return map[string]Config{
		"monopath": mono,
		"see":      see,
		"dualpath": dual,
		"small":    small,
		"caches":   caches,
	}
}

// TestAuditCleanAcrossConfigs runs the per-cycle invariant sweep against
// healthy machines of every flavor: the auditor must stay silent and the
// architectural contract must hold.
func TestAuditCleanAcrossConfigs(t *testing.T) {
	prog := sumProgram(300)
	for name, cfg := range auditConfigs() {
		cfg.Audit = AuditCycle
		m, err := New(prog, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := m.Run(); err != nil {
			t.Fatalf("%s: audit tripped on a healthy machine: %v", name, err)
		}
		if err := m.VerifyArchState(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestAuditCleanRandomPrograms fuzzes the auditor against random control
// flow (calls, returns, indirect jumps, loops cut by MaxInsts).
func TestAuditCleanRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 6; i++ {
		prog := progfuzz.Generate(rng, 120)
		cfg := DefaultConfig()
		cfg.MaxInsts = 20_000
		cfg.Audit = AuditCycle
		m, err := New(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatalf("program %d: audit tripped on a healthy machine: %v", i, err)
		}
	}
}

// TestAuditLevelsBitIdentical verifies the central auditing contract:
// the audit level observes, never perturbs — every simulated statistic is
// identical across off/commit/cycle.
func TestAuditLevelsBitIdentical(t *testing.T) {
	prog := sumProgram(400)
	type key struct {
		cycles, committed, mispred, killed uint64
		divergences                        uint64
		forwards                           uint64
	}
	var got [3]key
	for i, lvl := range []AuditLevel{AuditOff, AuditCommit, AuditCycle} {
		cfg := DefaultConfig()
		cfg.Audit = lvl
		m, err := New(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatalf("audit=%s: %v", lvl, err)
		}
		got[i] = key{
			cycles:      m.Stats.Cycles,
			committed:   m.Stats.Committed,
			mispred:     m.Stats.Mispredicts,
			killed:      m.Stats.Killed,
			divergences: m.Stats.Divergences,
			forwards:    m.Stats.StoreForwards,
		}
	}
	if got[0] != got[1] || got[0] != got[2] {
		t.Fatalf("audit level changed results: off=%+v commit=%+v cycle=%+v", got[0], got[1], got[2])
	}
}

// TestInjectedFaultsYieldMachineChecks injects each micro-architectural
// fault kind into a running machine under per-cycle auditing and requires a
// typed *MachineCheckError — never a process-killing panic, never a
// silently wrong result. It does so on a small loop and on the 30k-
// instruction compress stand-in, each twice: the same fault must
// reproduce the same check, cycle and detail.
func TestInjectedFaultsYieldMachineChecks(t *testing.T) {
	bm, err := workload.ByName("compress", 30_000)
	if err != nil {
		t.Fatal(err)
	}
	compress, err := workload.Generate(bm.Spec)
	if err != nil {
		t.Fatal(err)
	}
	progs := []*isa.Program{sumProgram(400), compress}
	kinds := []Fault{FaultRenameBitFlip, FaultRenameMapFlip, FaultDropWakeup, FaultFreeListFlip, FaultCtxTagFlip}
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			for _, prog := range progs {
				first := injectFault(t, prog, kind)
				again := injectFault(t, prog, kind)
				if first.Check != again.Check || first.Cycle != again.Cycle || first.Detail != again.Detail {
					t.Fatalf("%s on %s not reproducible: [%s c%d %q] vs [%s c%d %q]", kind, prog.Name,
						first.Check, first.Cycle, first.Detail, again.Check, again.Cycle, again.Detail)
				}
			}
		})
	}
}

// injectFault runs prog under per-cycle auditing with kind injected from
// cycle 50 on and returns the machine check the fault raised.
func injectFault(t *testing.T, prog *isa.Program, kind Fault) *MachineCheckError {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Audit = AuditCycle
	m, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	injected := false
	m.SetFaultHook(func(cycle uint64) {
		if !injected && cycle >= 50 {
			injected = m.InjectFault(kind, cycle*2654435761)
		}
	})
	err = m.Run()
	if !injected {
		t.Fatalf("fault %s on %s never found an injection victim", kind, prog.Name)
	}
	var mce *MachineCheckError
	if !errors.As(err, &mce) {
		t.Fatalf("fault %s on %s: want *MachineCheckError, got %v", kind, prog.Name, err)
	}
	if mce.Cycle == 0 || mce.Snapshot.Cycle == 0 {
		t.Fatalf("fault %s on %s: machine check missing cycle context: %+v", kind, prog.Name, mce)
	}
	if mce.Check == "" || mce.Detail == "" {
		t.Fatalf("fault %s on %s: machine check missing check/detail: %+v", kind, prog.Name, mce)
	}
	return mce
}

// TestTraceCursorCheckFires skews one on-trace branch's record number
// mid-run and requires the commit-time cursor check to name it. Fetch
// reads the reference record under an on-trace cursor without testing its
// PC, so this check is what stands behind every oracle read.
func TestTraceCursorCheckFires(t *testing.T) {
	bm, err := workload.ByName("compress", 30_000)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := workload.Generate(bm.Spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(prog, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	skewed := false
	m.SetFaultHook(func(cycle uint64) {
		if !skewed && cycle >= 50 {
			skewed = SkewTraceCursor(m)
		}
	})
	err = m.RunContext(context.Background())
	if !skewed {
		t.Fatal("no on-trace control-flow instruction to skew")
	}
	var mce *MachineCheckError
	if !errors.As(err, &mce) || mce.Check != "trace-cursor" {
		t.Fatalf("want a trace-cursor machine check, got %v", err)
	}
}

// TestForeignPanicContained verifies that an arbitrary panic on the cycle
// loop (not a raised machine check) is converted into a *MachineCheckError
// carrying the crashing stack, instead of escaping to the caller.
func TestForeignPanicContained(t *testing.T) {
	cfg := DefaultConfig()
	m, err := New(sumProgram(50), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.SetFaultHook(func(cycle uint64) {
		if cycle == 10 {
			panic("injected chaos")
		}
	})
	err = m.Run()
	var mce *MachineCheckError
	if !errors.As(err, &mce) {
		t.Fatalf("want contained *MachineCheckError, got %v", err)
	}
	if mce.Check != "panic" {
		t.Fatalf("want check=panic, got %q", mce.Check)
	}
	if !strings.Contains(mce.Detail, "injected chaos") {
		t.Fatalf("detail lost the panic value: %q", mce.Detail)
	}
	if mce.Stack == "" {
		t.Fatal("contained panic lost its stack trace")
	}
}

// TestParseAuditLevel covers the flag-parsing surface.
func TestParseAuditLevel(t *testing.T) {
	for in, want := range map[string]AuditLevel{
		"":       AuditOff,
		"off":    AuditOff,
		"commit": AuditCommit,
		"Cycle":  AuditCycle,
		" cycle": AuditCycle,
	} {
		got, err := ParseAuditLevel(in)
		if err != nil || got != want {
			t.Fatalf("ParseAuditLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseAuditLevel("paranoid"); err == nil {
		t.Fatal("ParseAuditLevel accepted an unknown level")
	}
	if s := AuditCommit.String(); s != "commit" {
		t.Fatalf("AuditCommit.String() = %q", s)
	}
}

// TestAuditExcludedFromCanonicalHash pins the memoization contract: configs
// differing only in audit level share one canonical identity, because
// auditing cannot change results.
func TestAuditExcludedFromCanonicalHash(t *testing.T) {
	a := DefaultConfig()
	b := DefaultConfig()
	b.Audit = AuditCycle
	ha, err := CanonicalHash(a)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := CanonicalHash(b)
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatal("audit level leaked into the canonical config hash")
	}
	bad := DefaultConfig()
	bad.WindowSize = -1
	if _, err := CanonicalHash(bad); err == nil {
		t.Fatal("CanonicalHash accepted an invalid config")
	}
}

// TestEntryOnReusedCtxSlot covers path identity under CTX slot reuse. An
// entry can outlive its path: a reclaimed zombie parent's older
// instructions stay in the window while a new path takes the slot. Such
// an entry belongs to no live path, so the auditor must not compare it
// with the new path's tag, and the tag-flip injector, which corrupts
// entries on live paths only, must never pick it.
func TestEntryOnReusedCtxSlot(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Confidence.Kind = ConfAlwaysLow // diverge at every branch
	m, err := New(sumProgram(2000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	audit := func() (err error) {
		defer func() { m.containMachineCheck(recover(), &err) }()
		m.runAudit()
		return nil
	}
	onReusedSlot := func(e *entry) bool { return e.path.live && e.path.seqNo != e.pathSeqNo }

	checked := 0
	for !m.Halted() && checked < 20 {
		m.Step()
		stale, live := 0, 0
		for _, e := range m.window {
			if onReusedSlot(e) {
				stale++
			}
			if e.onLivePath() {
				live++
			}
		}
		if stale == 0 {
			continue
		}
		checked++
		if err := audit(); err != nil {
			t.Fatalf("cycle %d: auditor flagged a healthy machine with %d entries on reused slots: %v", m.Cycle(), stale, err)
		}
		tags := make([]ctxtag.Tag, len(m.window))
		for arg := uint64(0); arg < uint64(2*len(m.window)); arg++ {
			for i, e := range m.window {
				tags[i] = e.tag
			}
			if injected := m.InjectFault(FaultCtxTagFlip, arg); injected != (live > 0) {
				t.Fatalf("cycle %d: tag flip injected=%v with %d live-path entries in the window", m.Cycle(), injected, live)
			}
			for i, e := range m.window {
				if e.tag == tags[i] {
					continue
				}
				if !e.onLivePath() {
					t.Fatalf("cycle %d: tag flip picked entry seq %d, whose CTX slot was reused", m.Cycle(), e.seq)
				}
				if audit() == nil {
					t.Fatalf("cycle %d: flipped tag on live-path entry seq %d went undetected", m.Cycle(), e.seq)
				}
				e.tag = tags[i]
			}
		}
	}
	if checked == 0 {
		t.Fatal("no entry outlived its path into a reused CTX slot; the test exercised nothing")
	}
}

// TestAuditTagPositionOwnedByOlderBranch plants the fault the kill
// sweep's seq bound would miss: an entry older than a divergent branch
// given that branch's history position. killWrongSubtree starts its sweep
// past the branch, so such an entry would survive a kill it belongs to,
// and the auditor must flag it. The tag-drift check would fire first on
// an entry of a live path, so the fault is planted on an entry whose path
// is no longer live.
func TestAuditTagPositionOwnedByOlderBranch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Confidence.Kind = ConfAlwaysLow // diverge at every branch
	m, err := New(sumProgram(2000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	audit := func() (err error) {
		defer func() { m.containMachineCheck(recover(), &err) }()
		m.runAudit()
		return nil
	}
	for !m.Halted() {
		m.Step()
		var branch, victim *entry
		for _, e := range m.window {
			if e.diverged {
				branch = e
				break
			}
		}
		if branch == nil {
			continue
		}
		for _, e := range m.window {
			if e.seq < branch.seq && !e.onLivePath() && !e.tag.Valid(branch.histPos) {
				victim = e
				break
			}
		}
		if victim == nil {
			continue
		}
		if err := audit(); err != nil {
			t.Fatalf("cycle %d: auditor flagged a healthy machine: %v", m.Cycle(), err)
		}
		victim.tag = victim.tag.WithPosition(branch.histPos, true)
		var mce *MachineCheckError
		if err := audit(); !errors.As(err, &mce) {
			t.Fatalf("cycle %d: entry seq %d given position %d of younger branch seq %d went undetected: %v",
				m.Cycle(), victim.seq, branch.histPos, branch.seq, err)
		}
		want := fmt.Sprintf("entry seq %d tag %s holds history position %d of divergent branch seq %d, which is not older",
			victim.seq, victim.tag, branch.histPos, branch.seq)
		if mce.Check != "ctx-refcount" || mce.Detail != want {
			t.Fatalf("planted fault raised [%s] %q, want [ctx-refcount] %q", mce.Check, mce.Detail, want)
		}
		return
	}
	t.Fatal("no entry older than a divergent branch outlived its path; the test exercised nothing")
}
