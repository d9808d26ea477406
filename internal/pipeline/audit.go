package pipeline

import (
	"repro/internal/ctxtag"
	"repro/internal/isa"
	"repro/internal/rename"
)

// audit.go is the machine-check invariant auditor: an opt-in sweep
// (Config.Audit: off/commit/cycle) over the micro-architectural state that
// detects internal corruption — a free-list desync, an out-of-order ROB, a
// leaked or double-owned CTX history position, a store-buffer filter tag
// that drifted from its path — and raises a typed *MachineCheckError the
// moment it finds one, instead of letting the corruption silently commit
// wrong architectural state or crash the process cycles later.
//
// Every check asserts a property that holds at the end of any cycle of a
// healthy machine, across all modes and fetch policies; the auditor is
// validated by running the benchmark suite under AuditCycle in tests.
// Sweeps only read state: auditing can never change simulated results.

// runAudit sweeps every invariant class and raises a machine check on the
// first violation. It runs at end-of-cycle, when the pipeline stages have
// reached their inter-cycle fixed point.
func (m *Machine) runAudit() {
	if err := m.freeList.AuditConsistency(); err != nil {
		m.machineCheckf("free-list", -1, "%v", err)
	}
	m.auditWindow()
	m.auditPaths()
	m.auditCtxTags()
	m.auditCheckpoints()
	// The SoA scheduler cross-check runs last so the long-standing audits
	// above keep first-report priority on the faults they target.
	m.auditScheduler()
}

// auditWindow verifies ROB discipline: entries in strictly increasing
// program order, no squashed entries lingering, occupancy within bounds,
// per-entry state-machine consistency (a completed producer must have
// published its result; an incomplete one must not read as ready), and that
// every physical register an entry references is still allocated.
func (m *Machine) auditWindow() {
	if len(m.window) > m.cfg.WindowSize {
		m.machineCheckf("rob-order", -1, "window holds %d entries, capacity %d", len(m.window), m.cfg.WindowSize)
	}
	if m.winOff+len(m.window) > len(m.winBuf) {
		m.machineCheckf("rob-order", -1, "window offset %d + length %d exceeds backing array %d", m.winOff, len(m.window), len(m.winBuf))
	}
	var prevSeq uint64
	for i, e := range m.window {
		if e == nil {
			m.machineCheckf("rob-order", -1, "nil window entry at index %d", i)
		}
		if i > 0 && e.seq <= prevSeq {
			m.machineCheckf("rob-order", e.pc, "window order violated: seq %d at index %d after seq %d", e.seq, i, prevSeq)
		}
		prevSeq = e.seq
		if e.killed {
			m.machineCheckf("rob-order", e.pc, "squashed entry seq %d still in the window", e.seq)
		}
		if e.state != stateWaiting && e.state != stateExecuting && e.state != stateDone {
			m.machineCheckf("rob-order", e.pc, "entry seq %d in impossible state %d", e.seq, e.state)
		}
		if e.hasDest {
			if !m.freeList.IsAllocated(e.dstPhys) {
				m.machineCheckf("free-list", e.pc, "entry seq %d destination p%d is not allocated", e.seq, e.dstPhys)
			}
			if !m.freeList.IsAllocated(e.oldPhys) {
				m.machineCheckf("free-list", e.pc, "entry seq %d previous mapping p%d is not allocated", e.seq, e.oldPhys)
			}
			if e.state == stateDone && !m.physReady.Test(e.dstPhys) {
				m.machineCheckf("wakeup", e.pc, "entry seq %d completed but p%d never published (dropped wakeup)", e.seq, e.dstPhys)
			}
			if e.state != stateDone && m.physReady.Test(e.dstPhys) {
				m.machineCheckf("wakeup", e.pc, "entry seq %d incomplete but p%d reads ready (spurious wakeup)", e.seq, e.dstPhys)
			}
		}
		if e.readsSrc1 && !m.freeList.IsAllocated(e.src1Phys) {
			m.machineCheckf("free-list", e.pc, "entry seq %d source p%d is not allocated", e.seq, e.src1Phys)
		}
		if e.readsSrc2 && !m.freeList.IsAllocated(e.src2Phys) {
			m.machineCheckf("free-list", e.pc, "entry seq %d source p%d is not allocated", e.seq, e.src2Phys)
		}
		if (e.isLoad || e.isStore) && e.addrReady && (e.addr < 0 || e.addr >= m.mem.Words()) {
			m.machineCheckf("store-filter", e.pc, "entry seq %d effective address %d outside memory [0,%d)", e.seq, e.addr, m.mem.Words())
		}
	}
	// Architected references: the retirement map must only name allocated
	// registers (these hold the committed architectural values).
	for r := 0; r < isa.NumRegs; r++ {
		if p := m.retireMap.Get(isa.Reg(r)); !m.freeList.IsAllocated(p) {
			m.machineCheckf("free-list", -1, "retirement map r%d names unallocated p%d", r, p)
		}
	}
}

// auditPaths verifies the CTX table: the live list that orders fetch,
// per-path rename map references, and the pending-branch refcount that
// gates zombie-slot reclamation.
func (m *Machine) auditPaths() {
	live := 0
	for id := range m.slots {
		s := &m.slots[id]
		p := &s.path
		if !p.live {
			continue
		}
		live++
		if p.id != id {
			m.machineCheckf("ctx-refcount", p.fetchPC, "path in slot %d believes it is slot %d", id, p.id)
		}
		// Two paths sharing a map would corrupt each other's speculative
		// state.
		if p.regmap != nil && p.regmap != &s.regmap {
			m.machineCheckf("ctx-refcount", p.fetchPC, "path %d uses a register map its slot does not own", id)
		}
		// A fresh child path has no rename map until its creating divergent
		// branch renames (the map is copied into the slot at that point); a
		// nil map is therefore legal, but a present map must be sound.
		if p.regmap != nil {
			for r := 0; r < isa.NumRegs; r++ {
				if phys := p.regmap.Get(isa.Reg(r)); !m.freeList.IsAllocated(phys) {
					m.machineCheckf("free-list", p.fetchPC, "path %d maps r%d to unallocated p%d", id, r, phys)
				}
			}
		}
		if p.pendingBranches < 0 {
			m.machineCheckf("ctx-refcount", p.fetchPC, "path %d pending-branch refcount is %d", id, p.pendingBranches)
		}
	}
	if live != len(m.live) {
		m.machineCheckf("ctx-refcount", -1, "CTX table holds %d paths but the live list holds %d", live, len(m.live))
	}
	for i, p := range m.live {
		if !p.live {
			m.machineCheckf("ctx-refcount", p.fetchPC, "released path %d still on the live list", p.id)
		}
		if i > 0 && p.seqNo <= m.live[i-1].seqNo {
			m.machineCheckf("ctx-refcount", p.fetchPC, "live list out of creation order at path %d", p.id)
		}
	}

	// Recompute each path's unresolved-control refcount from the window and
	// the front end; a drifted count reclaims (or leaks) CTX slots.
	m.auditInts = resize(m.auditInts, len(m.slots))
	pending := m.auditInts
	count := func(e *entry) {
		if !e.onLivePath() {
			m.machineCheckf("ctx-refcount", e.pc, "unresolved control instruction on released path %d", e.path.id)
		}
		pending[e.path.id]++
	}
	for _, e := range m.window {
		if (e.isBranch || e.isIndirect) && !e.resolved {
			count(e)
		}
	}
	for _, latch := range m.frontEnd {
		for _, f := range latch {
			if f.isBranch || f.isIndirect {
				count(f)
			}
		}
	}
	for _, p := range m.live {
		if p.pendingBranches != pending[p.id] {
			m.machineCheckf("ctx-refcount", p.fetchPC, "path %d pending-branch refcount %d, recounted %d", p.id, p.pendingBranches, pending[p.id])
		}
	}
}

// auditCtxTags verifies CTX-tag accounting: every allocated history
// position must be owned by exactly one in-flight divergent branch, the
// divergence counter must match the unresolved divergences in flight, every
// valid position in any in-flight tag must be backed by an allocated
// position owned by an older divergent branch, and every in-flight
// instruction must carry exactly its path's tag — the properties the store
// buffer's path-ancestry forwarding filter and the kill buses rely on.
func (m *Machine) auditCtxTags() {
	m.auditInts = resize(m.auditInts, m.ctxAlloc.Width())
	owners := m.auditInts
	divergences := 0
	claim := func(pos, pc int) {
		if pos < 0 || pos >= len(owners) {
			m.machineCheckf("ctx-refcount", pc, "divergent branch owns impossible history position %d", pos)
		}
		owners[pos]++
	}
	for _, e := range m.window {
		if e.diverged {
			claim(e.histPos, e.pc)
			if !e.resolved {
				divergences++
			}
		}
		m.auditTag(e.tag, e.pc)
		if e.onLivePath() && e.tag != e.path.tag {
			m.machineCheckf("store-filter", e.pc, "entry seq %d tag %s drifted from path %d tag %s", e.seq, e.tag, e.path.id, e.path.tag)
		}
	}
	for _, latch := range m.frontEnd {
		for _, f := range latch {
			if f.diverged {
				claim(f.histPos, f.pc)
				divergences++
			}
			m.auditTag(f.tag, f.pc)
			if f.onLivePath() && f.tag != f.path.tag {
				m.machineCheckf("store-filter", f.pc, "front-end instruction seq %d tag %s drifted from path %d tag %s", f.seq, f.tag, f.path.id, f.path.tag)
			}
		}
	}
	for _, p := range m.live {
		m.auditTag(p.tag, p.fetchPC)
	}
	if divergences != m.divergences {
		m.machineCheckf("ctx-refcount", -1, "divergence counter %d, recounted %d unresolved divergences in flight", m.divergences, divergences)
	}
	inUse := 0
	for pos, n := range owners {
		if n > 1 {
			m.machineCheckf("ctx-refcount", -1, "history position %d owned by %d divergent branches", pos, n)
		}
		if n == 1 {
			inUse++
			if !m.ctxAlloc.Allocated(pos) {
				m.machineCheckf("ctx-refcount", -1, "history position %d owned by a divergent branch but free in the allocator", pos)
			}
		}
	}
	if got := m.ctxAlloc.InUse(); got != inUse {
		m.machineCheckf("ctx-refcount", -1, "allocator holds %d history positions, %d owned by in-flight branches (leak)", got, inUse)
	}

	// Every valid position of an in-flight tag belongs to a divergent
	// branch older than the instruction: killWrongSubtree starts its
	// sweep past the branch on this. Ownership is unique by now, so the
	// scratch is reused to hold each position's owning seq (0: unowned).
	ownerSeq := owners
	clear(ownerSeq)
	for _, e := range m.window {
		if e.diverged {
			ownerSeq[e.histPos] = int(e.seq)
		}
	}
	for _, latch := range m.frontEnd {
		for _, f := range latch {
			if f.diverged {
				ownerSeq[f.histPos] = int(f.seq)
			}
		}
	}
	for _, e := range m.window {
		m.auditTagOwners(e, ownerSeq)
	}
	for _, latch := range m.frontEnd {
		for _, f := range latch {
			m.auditTagOwners(f, ownerSeq)
		}
	}
}

// auditTagOwners checks that every valid position of e's tag is owned by
// a divergent branch older than e, given each position's owning seq.
func (m *Machine) auditTagOwners(e *entry, ownerSeq []int) {
	for pos, seq := range ownerSeq {
		if e.tag.Valid(pos) && uint64(seq) >= e.seq {
			m.machineCheckf("ctx-refcount", e.pc, "entry seq %d tag %s holds history position %d of divergent branch seq %d, which is not older", e.seq, e.tag, pos, seq)
		}
	}
}

// auditTag checks that every valid position of an in-flight tag is backed
// by an allocated history position (a set-but-freed bit means a commit-bus
// broadcast was lost, or the tag itself was corrupted), and that no
// position beyond the configured history width is valid.
func (m *Machine) auditTag(t ctxtag.Tag, pc int) {
	width := m.ctxAlloc.Width()
	for pos := 0; pos < width; pos++ {
		if t.Valid(pos) && !m.ctxAlloc.Allocated(pos) {
			m.machineCheckf("ctx-refcount", pc, "tag %s holds freed history position %d", t, pos)
		}
	}
	for pos := width; pos < ctxtag.MaxPositions; pos++ {
		if t.Valid(pos) {
			m.machineCheckf("ctx-refcount", pc, "tag %s holds position %d beyond the configured width %d", t, pos, width)
		}
	}
}

// auditCheckpoints verifies the checkpoint pool: every unresolved branch's
// checkpoint handle must name a distinct live slot, the pool's books must
// balance, and every register a checkpoint could restore must be allocated.
func (m *Machine) auditCheckpoints() {
	m.auditBools = resize(m.auditBools, m.ckpts.Capacity())
	held := m.auditBools
	n := 0
	for _, e := range m.window {
		if !e.hasCkpt {
			continue
		}
		n++
		if e.ckptID < 0 || e.ckptID >= m.ckpts.Capacity() {
			m.machineCheckf("checkpoint", e.pc, "entry seq %d holds impossible checkpoint %d", e.seq, e.ckptID)
		}
		if !m.ckpts.Used(e.ckptID) {
			m.machineCheckf("checkpoint", e.pc, "entry seq %d holds released checkpoint %d", e.seq, e.ckptID)
		}
		if held[e.ckptID] {
			m.machineCheckf("checkpoint", e.pc, "checkpoint %d held by two entries", e.ckptID)
		}
		held[e.ckptID] = true
	}
	if used := m.ckpts.Capacity() - m.ckpts.Available(); used != n {
		m.machineCheckf("checkpoint", -1, "checkpoint pool says %d slots used, %d held by window entries (leak)", used, n)
	}
	m.ckpts.ForEachUsed(func(id int, mp *rename.Map) {
		for r := 0; r < isa.NumRegs; r++ {
			if phys := mp.Get(isa.Reg(r)); !m.freeList.IsAllocated(phys) {
				m.machineCheckf("free-list", -1, "checkpoint %d maps r%d to unallocated p%d", id, r, phys)
			}
		}
	})
}
