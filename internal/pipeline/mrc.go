package pipeline

import "repro/internal/isa"

// mrc.go implements a Misprediction Recovery Cache comparator (Bondi,
// Nanda and Dutta, MICRO '96 — related work [1] in the PolyPath paper):
// a small cache of decoded instruction sequences that begin at previous
// misprediction-recovery targets. On a later recovery to the same target,
// the cached sequence is injected directly into the last front-end latch,
// hiding the front-end refill portion of the misprediction penalty (the
// paper evaluated the idea in an in-order CISC pipeline; here it rides on
// the same out-of-order machine as monopath and SEE so the three recovery
// strategies are comparable).
//
// The cache stores instruction indices only: the machine re-reads the
// static program at injection time, so stale-code hazards cannot arise
// (the program is immutable).

// mrcEntry caches the straight-line decoded sequence starting at a
// recovery target. Seq holds up to mrcLineLen instruction indices,
// following fall-through and direct-jump flow only (a conditional branch
// or indirect jump ends the line, as in the original design where lines
// end at hard-to-predecode points).
type mrcEntry struct {
	target int
	seq    []int32
	valid  bool
}

// mrcCache is a direct-mapped recovery cache.
type mrcCache struct {
	entries []mrcEntry
	mask    uint64
	hits    uint64
	misses  uint64
}

const mrcLineLen = 8

func newMRC(indexBits int) *mrcCache {
	n := 1 << uint(indexBits)
	return &mrcCache{entries: make([]mrcEntry, n), mask: uint64(n - 1)}
}

// lookup returns the cached sequence for a recovery target.
func (c *mrcCache) lookup(target int) ([]int32, bool) {
	e := &c.entries[uint64(target)&c.mask]
	if e.valid && e.target == target {
		c.hits++
		return e.seq, true
	}
	c.misses++
	return nil, false
}

// fill captures the decoded straight-line sequence at target from the
// static program.
func (c *mrcCache) fill(p *isa.Program, target int) {
	var seq []int32
	pc := target
	for len(seq) < mrcLineLen && pc >= 0 && pc < len(p.Code) {
		in := p.Code[pc]
		// Lines end before instructions whose successor is not statically
		// known (or that terminate execution).
		if in.Op.IsCondBranch() || in.Op.IsIndirect() || in.Op == isa.Halt {
			break
		}
		seq = append(seq, int32(pc))
		if in.Op == isa.Jmp || in.Op == isa.Call {
			pc = int(in.Target)
		} else {
			pc++
		}
	}
	if len(seq) == 0 {
		return
	}
	e := &c.entries[uint64(target)&c.mask]
	*e = mrcEntry{target: target, seq: seq, valid: true}
}

// injectMRC services a misprediction recovery from the MRC: if the
// recovery target hits in the cache, the cached decoded instructions are
// fed straight into the last front-end latch (skipping the fetch/decode
// stages) and the path's fetch resumes after them. Returns whether an
// injection happened.
//
// Injection re-drives the normal fetch bookkeeping (sequence numbers,
// RAS pushes for calls, tags) so the injected instructions are
// indistinguishable from normally fetched ones downstream.
func (m *Machine) injectMRC(p *path) bool {
	if m.mrc == nil {
		return false
	}
	target := p.fetchPC
	seq, ok := m.mrc.lookup(target)
	if !ok {
		m.mrc.fill(m.prog, target)
		return false
	}
	last := len(m.frontEnd) - 1
	if len(m.frontEnd[last]) > 0 {
		return false // latch busy; fall back to normal refetch
	}
	injected := m.allocLatch()
	for _, pci := range seq {
		pc := int(pci)
		in := m.prog.Code[pc]
		if in.Op == isa.Call {
			p.ras.Push(pc + 1)
		}
		injected = append(injected, m.fetchEntry(p, pc, in))
	}
	if len(injected) == 0 {
		m.freeLatch(injected)
		return false
	}
	m.Stats.Fetched += uint64(len(injected))
	m.Stats.MRCInjections++
	m.frontEnd[last] = injected
	// Resume fetch after the cached line, following the line's own flow.
	lastPC := int(seq[len(seq)-1])
	lastIn := m.prog.Code[lastPC]
	if lastIn.Op == isa.Jmp || lastIn.Op == isa.Call {
		p.fetchPC = int(lastIn.Target)
	} else {
		p.fetchPC = lastPC + 1
	}
	return true
}
