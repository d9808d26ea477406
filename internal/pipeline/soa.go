package pipeline

import (
	"math/bits"

	"repro/internal/isa"
	"repro/internal/rename"
)

// soa.go is the structure-of-arrays scheduler core: dense per-window-slot
// bitmaps and a parallel array of select inputs that let wakeup and select
// walk set bits with bits.TrailingZeros64 instead of scanning pointer-heavy
// window entries (the ready-bitmap + CTZ scheduler pattern; DESIGN.md §3,
// "Select").
//
// Slots are winBuf positions: the window occupies winBuf[winOff :
// winOff+len(window)] in seq (age) order, so an ascending bit walk IS the
// oldest-first scan order the pre-SoA deque used — the property the
// select-order cross-check test asserts. Bits outside the live range are
// always clear (maintained at insert, issue, commit pop, and the rebuild
// that follows any window compaction), so the hot walks need no boundary
// masking beyond the "stores older than this load" cut.
//
// Semantics are deliberately recompute-exact: operand readiness is
// tested live against physReady at every select walk, never cached
// across cycles, so the select candidates are the same set the old
// per-entry scan produced — under fault injection included — and every
// experiment table stays byte-identical.

// soaState holds the scheduler's structure-of-arrays view of the window.
// All slices are indexed by winBuf position; the bitmaps pack 64 slots
// per word.
type soaState struct {
	waitW  []uint64 // slot holds an entry in stateWaiting
	readyW []uint64 // verify-hook scratch: recomputed select candidates
	staW   []uint64 // waiting store whose effective address is not yet computed
	storeW []uint64 // slot holds a store (any state): the load-disambiguation walk

	// ops holds each slot's wakeup-critical fields, copied from the entry
	// at insert so the per-cycle readiness recompute touches only this
	// dense array.
	ops []soaOp
}

// soaOp is one slot's select input: its two source registers and its
// functional-unit class. An operand the instruction does not read names
// the always-ready sentinel register, so readiness is one AND of two
// ready bits with no test of which operands the instruction reads.
type soaOp struct {
	src1, src2 rename.PhysReg
	class      uint8
}

// soaInit sizes the scheduler arrays for a winBuf of n slots, every bit
// clear, reusing their backing arrays when large enough.
func (m *Machine) soaInit(n int) {
	words := (n + 63) / 64
	s := &m.soa
	s.waitW = resize(s.waitW, words)
	s.readyW = resize(s.readyW, words)
	s.staW = resize(s.staW, words)
	s.storeW = resize(s.storeW, words)
	s.ops = resize(s.ops, n)
}

// soaOperandsReady reports whether every source operand of the entry at
// pos is ready, reading only the SoA arrays and the physical-register
// readiness bitmap.
func (m *Machine) soaOperandsReady(pos int) bool {
	op := &m.soa.ops[pos]
	return m.physReady.Bit(op.src1)&m.physReady.Bit(op.src2) != 0
}

// soaSet derives the scheduler state of entry e at slot pos: the SoA
// field copies and the wait/sta/store bits. Used at window insert and by
// the post-compaction rebuild. Operand readiness is never cached here —
// the select walk tests it live against physReady.
func (m *Machine) soaSet(pos int, e *entry) {
	s := &m.soa
	s.ops[pos] = soaOp{src1: e.src1Phys, src2: e.src2Phys, class: uint8(e.class)}

	w, bit := pos>>6, uint64(1)<<uint(pos&63)
	if e.isStore {
		s.storeW[w] |= bit
	}
	if e.state == stateWaiting {
		s.waitW[w] |= bit
		if e.isStore && !e.addrReady {
			s.staW[w] |= bit
		}
	}
}

// soaClearPos clears every scheduler bit of slot pos (the commit pop).
func (m *Machine) soaClearPos(pos int) {
	s := &m.soa
	w, bit := pos>>6, uint64(1)<<uint(pos&63)
	s.waitW[w] &^= bit
	s.staW[w] &^= bit
	s.storeW[w] &^= bit
}

// soaIssued clears the waiting bit of slot pos when its entry leaves
// stateWaiting for a functional unit.
func (m *Machine) soaIssued(pos int) {
	s := &m.soa
	s.waitW[pos>>6] &^= uint64(1) << uint(pos&63)
}

// soaClearRange clears every scheduler bit in slot range [lo, hi).
func (m *Machine) soaClearRange(lo, hi int) {
	if lo >= hi {
		return
	}
	s := &m.soa
	loW, hiW := lo>>6, (hi-1)>>6
	for w := loW; w <= hiW; w++ {
		mask := ^uint64(0)
		if w == loW {
			mask &^= (uint64(1) << uint(lo&63)) - 1
		}
		if w == hiW && (hi&63) != 0 {
			mask &= (uint64(1) << uint(hi&63)) - 1
		}
		s.waitW[w] &^= mask
		s.staW[w] &^= mask
		s.storeW[w] &^= mask
	}
}

// soaRebuild re-derives every bitmap and SoA field from the live window.
// Called after a compaction that moves every entry to a new winBuf
// position (the windowPush wrap); already O(window), so the rebuild does
// not change its complexity.
func (m *Machine) soaRebuild() {
	s := &m.soa
	clear(s.waitW)
	clear(s.staW)
	clear(s.storeW)
	for i, e := range m.window {
		m.soaSet(m.winOff+i, e)
	}
}

// soaRebuildFrom re-derives scheduler state for window indices >= from,
// where oldLen is the window length before a kill-sweep compaction.
// Entries below from kept their winBuf positions, so only the shifted
// suffix (and the vacated tail) needs touching — a kill that squashes a
// young subtree leaves the old prefix's bits alone.
func (m *Machine) soaRebuildFrom(from, oldLen int) {
	m.soaClearRange(m.winOff+from, m.winOff+oldLen)
	for i := from; i < len(m.window); i++ {
		m.soaSet(m.winOff+i, m.window[i])
	}
}

// walkBits calls fn with each set bit position of words inside [lo, hi),
// ascending, stopping early when fn returns false. It is the reference
// form of the masked per-word walk the hot loops inline; the exhaustive
// 64/65/128-slot boundary tests run against it and the audit sweep uses
// it to cross-check the inlined walks.
func walkBits(words []uint64, lo, hi int, fn func(pos int) bool) {
	if lo >= hi {
		return
	}
	loW, hiW := lo>>6, (hi-1)>>6
	for w := loW; w <= hiW; w++ {
		word := words[w]
		if w == loW {
			word &^= (uint64(1) << uint(lo&63)) - 1
		}
		if w == hiW && (hi&63) != 0 {
			word &= (uint64(1) << uint(hi&63)) - 1
		}
		for ; word != 0; word &= word - 1 {
			if !fn(w<<6 | bits.TrailingZeros64(word)) {
				return
			}
		}
	}
}

// soaSelectAudit, when set by tests, cross-checks every select pass: the
// candidate sequence produced by the ready-bitmap walk must equal a naive
// oldest-first scan of the window applying the pre-SoA readiness
// predicate. It is a test hook only; the hot path pays one branch.
var soaSelectAudit bool

// soaVerifySelectOrder machine-checks when the bitmap-derived select
// order diverges from the old deque scan order. It recomputes the
// candidate set into the readyW scratch exactly as the fused select walk
// derives it (waitW bits filtered by live operand readiness), then
// compares the masked walk against a naive oldest-first window scan
// applying the pre-SoA predicate.
func (m *Machine) soaVerifySelectOrder() {
	var naive []uint64
	for _, e := range m.window {
		if e.state != stateWaiting {
			continue
		}
		if e.readsSrc1 && !m.physReady.Test(e.src1Phys) {
			continue
		}
		if e.readsSrc2 && !m.physReady.Test(e.src2Phys) {
			continue
		}
		naive = append(naive, e.seq)
	}
	s := &m.soa
	lo, hi := m.winOff, m.winOff+len(m.window)
	clear(s.readyW)
	if hi > lo {
		for w, hiW := lo>>6, (hi-1)>>6; w <= hiW; w++ {
			var ready uint64
			for t := s.waitW[w]; t != 0; t &= t - 1 {
				b := bits.TrailingZeros64(t)
				if m.soaOperandsReady(w<<6 | b) {
					ready |= uint64(1) << uint(b)
				}
			}
			s.readyW[w] = ready
		}
	}
	var got []uint64
	walkBits(s.readyW, lo, hi, func(pos int) bool {
		got = append(got, m.winBuf[pos].seq)
		return true
	})
	if len(naive) != len(got) {
		m.machineCheckf("wakeup", -1, "soa select order: bitmap yields %d candidates, deque scan %d", len(got), len(naive))
	}
	for i := range naive {
		if naive[i] != got[i] {
			m.machineCheckf("wakeup", -1, "soa select order: candidate %d is seq %d via bitmap, seq %d via deque scan", i, got[i], naive[i])
		}
	}
}

// auditScheduler verifies the SoA scheduler against the window: every
// bit must agree with its entry's state, the SoA field copies must not
// have drifted, an operand an entry does not read must name the sentinel,
// the sentinel must read ready, and no bit may be set outside the live
// slot range. It
// runs last in the audit sweep so the pre-existing invariant checks keep
// reporting first on the faults they were designed to catch.
func (m *Machine) auditScheduler() {
	s := &m.soa
	lo := m.winOff
	var nWait, nSta, nStore int
	for i, e := range m.window {
		pos := lo + i
		w, bit := pos>>6, uint64(1)<<uint(pos&63)
		waiting := e.state == stateWaiting
		if (s.waitW[w]&bit != 0) != waiting {
			m.machineCheckf("wakeup", e.pc, "entry seq %d waiting=%v but wait bit=%v", e.seq, waiting, s.waitW[w]&bit != 0)
		}
		if (s.storeW[w]&bit != 0) != e.isStore {
			m.machineCheckf("store-filter", e.pc, "entry seq %d store=%v but store bit=%v", e.seq, e.isStore, s.storeW[w]&bit != 0)
		}
		wantSta := waiting && e.isStore && !e.addrReady
		if (s.staW[w]&bit != 0) != wantSta {
			m.machineCheckf("store-filter", e.pc, "entry seq %d sta bit=%v, want %v", e.seq, s.staW[w]&bit != 0, wantSta)
		}
		op := s.ops[pos]
		if op.src1 != e.src1Phys {
			m.machineCheckf("wakeup", e.pc, "entry seq %d src1 drifted: soa p%d, entry p%d", e.seq, op.src1, e.src1Phys)
		}
		if op.src2 != e.src2Phys {
			m.machineCheckf("wakeup", e.pc, "entry seq %d src2 drifted: soa p%d, entry p%d", e.seq, op.src2, e.src2Phys)
		}
		if (!e.readsSrc1 && e.src1Phys != m.unreadReg) || (!e.readsSrc2 && e.src2Phys != m.unreadReg) {
			m.machineCheckf("wakeup", e.pc, "entry seq %d names p%d/p%d for an operand it does not read, not the sentinel p%d", e.seq, e.src1Phys, e.src2Phys, m.unreadReg)
		}
		if isa.FUClass(op.class) != e.class {
			m.machineCheckf("wakeup", e.pc, "entry seq %d class drifted: soa %s, entry %s", e.seq, isa.FUClass(op.class), e.class)
		}
		if s.waitW[w]&bit != 0 {
			nWait++
		}
		if s.staW[w]&bit != 0 {
			nSta++
		}
		if s.storeW[w]&bit != 0 {
			nStore++
		}
	}
	if !m.physReady.Test(m.unreadReg) {
		m.machineCheckf("wakeup", -1, "sentinel register p%d reads not ready", m.unreadReg)
	}
	count := func(words []uint64) int {
		n := 0
		for _, w := range words {
			n += bits.OnesCount64(w)
		}
		return n
	}
	if got := count(s.waitW); got != nWait {
		m.machineCheckf("wakeup", -1, "wait bitmap holds %d bits, %d belong to live slots (stray bits)", got, nWait)
	}
	if got := count(s.staW); got != nSta {
		m.machineCheckf("store-filter", -1, "sta bitmap holds %d bits, %d belong to live slots (stray bits)", got, nSta)
	}
	if got := count(s.storeW); got != nStore {
		m.machineCheckf("store-filter", -1, "store bitmap holds %d bits, %d belong to live slots (stray bits)", got, nStore)
	}
}
