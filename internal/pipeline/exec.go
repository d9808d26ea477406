package pipeline

import (
	"math/bits"

	"repro/internal/bpred"
	"repro/internal/ctxtag"
	"repro/internal/isa"
)

// issue selects ready instructions through the SoA scheduler (soa.go):
// the STA pass computes store addresses whose base register became
// ready, then the select pass walks waiting bits oldest-first —
// ascending winBuf slots are ascending seq — testing operand readiness
// against the dense SoA arrays and issuing to free functional units (one
// issue per unit per cycle; all units are pipelined). Loads obey the
// memory-ordering rule: every older store on the load's path ancestry
// must have computed its address, and a matching store forwards its data
// through the CTX-filtered store buffer.
//
// The candidate set and its order are exactly the pre-SoA oldest-first
// window scan's (operand readiness is tested live, never cached across
// cycles), so simulated results are bit-identical; only the walk is
// cheaper — executing and completed entries cost nothing, and a waiting
// entry's wakeup check touches dense arrays instead of its window entry
// struct. Exiting once every unit is consumed is safe because nothing
// after that point had side effects in the scan form: store accumulation
// lives in the persistent store bitmap and address generation in the STA
// pass.
func (m *Machine) issue() {
	lo := m.winOff
	hi := lo + len(m.window)
	if lo == hi {
		return
	}
	s := &m.soa
	loW, hiW := lo>>6, (hi-1)>>6

	if soaSelectAudit {
		m.soaVerifySelectOrder()
	}

	// Store address generation is decoupled from the data operand
	// (STA/STD split): once the base register is ready the effective
	// address is known for disambiguation, even while the store waits
	// for its data. Bits outside [lo, hi) are never set, so no boundary
	// masking is needed.
	for w := loW; w <= hiW; w++ {
		sta := s.staW[w]
		for t := sta; t != 0; t &= t - 1 {
			b := bits.TrailingZeros64(t)
			pos := w<<6 | b
			if m.physReady.Bit(s.ops[pos].src1) == 0 {
				continue
			}
			e := m.winBuf[pos]
			e.addr = isa.EffAddr(m.physVal[e.src1Phys], e.inst.Imm, m.prog.MemWords)
			e.addrReady = true
			sta &^= uint64(1) << uint(b)
		}
		s.staW[w] = sta
	}

	// Select: walk waiting bits oldest-first, wake against the physical
	// register readiness bitmap, issue against functional-unit
	// availability. avail is indexed by the unit class an instruction
	// takes; an int-either instruction takes a type-0 unit while one is
	// free, else a type-1 unit. left counts every free unit, so the walk
	// ends once all are taken.
	var avail [isa.NumFUClasses]int
	avail[isa.ClassIntType0] = m.cfg.NumIntType0
	avail[isa.ClassIntType1] = m.cfg.NumIntType1
	avail[isa.ClassFPAdd] = m.cfg.NumFPAdd
	avail[isa.ClassFPMul] = m.cfg.NumFPMul
	avail[isa.ClassMem] = m.cfg.NumMemPorts
	left := m.cfg.NumIntType0 + m.cfg.NumIntType1 + m.cfg.NumFPAdd + m.cfg.NumFPMul + m.cfg.NumMemPorts
	for w := loW; w <= hiW; w++ {
		for cand := s.waitW[w]; cand != 0; cand &= cand - 1 {
			b := bits.TrailingZeros64(cand)
			pos := w<<6 | b

			op := &s.ops[pos]
			if m.physReady.Bit(op.src1)&m.physReady.Bit(op.src2) == 0 {
				continue
			}
			unit := isa.FUClass(op.class)
			if unit == isa.ClassIntEither {
				unit = isa.ClassIntType0
				if avail[isa.ClassIntType0] == 0 {
					unit = isa.ClassIntType1
				}
			}
			if avail[unit] == 0 {
				continue
			}

			e := m.winBuf[pos]
			lat := int(e.lat)
			if e.isLoad {
				issued, forwarded := m.issueLoad(e, pos)
				if !issued {
					continue
				}
				if forwarded {
					lat = 1 // 1-cycle store-buffer forward (Sec. 4.2)
				} else if m.dcache != nil {
					m.Stats.DCacheAccesses++
					if !m.dcache.Access(e.addr) {
						m.Stats.DCacheMisses++
						lat += m.cfg.DCacheMissLatency
					}
				}
			} else {
				m.execute(e)
			}

			e.state = stateExecuting
			m.soaIssued(pos)
			m.schedule(e, lat)
			m.emit(TraceIssue, e, int(unit))
			m.Stats.FUIssued[unit]++
			avail[unit]--
			if left--; left == 0 {
				return // every unit consumed; nothing left to select
			}
		}
	}
}

// execute computes e's result with real operand values (the execution-
// driven contract: wrong paths compute wrong values). An operand the
// instruction does not read names the sentinel register, whose value is 0.
func (m *Machine) execute(e *entry) {
	v1 := m.physVal[e.src1Phys]
	v2 := m.physVal[e.src2Phys]
	switch e.kind {
	case dkCond:
		e.outcome = isa.EvalBranch(e.inst.Op, v1, v2)
	case dkJmp:
		// Direct jump: nothing to compute.
	case dkIndirect:
		e.actualTarget = isa.IndirectTarget(v1, len(m.prog.Code))
	case dkCall:
		e.result = int64(e.pc + 1) // the link value
	case dkStore:
		e.addr = isa.EffAddr(v1, e.inst.Imm, m.prog.MemWords)
		e.addrReady = true
		e.storeData = v2
	default:
		e.result = isa.EvalALU(e.inst.Op, v1, v2, e.inst.Imm)
	}
}

// issueLoad applies the memory ordering rules and, when the load can
// proceed, computes its value from the store buffer or architectural
// memory. The older-store set is the store bitmap cut below the load's
// own slot: ascending winBuf positions are ascending seq, so masking off
// pos and above in the load's word yields exactly the in-flight stores
// older than the load, walked oldest-first.
func (m *Machine) issueLoad(e *entry, pos int) (issued, forwarded bool) {
	v1 := m.physVal[e.src1Phys]
	addr := isa.EffAddr(v1, e.inst.Imm, m.prog.MemWords)

	// Perfect-disambiguation approximation: older ancestor stores must
	// have computed their addresses before a load may issue; the youngest
	// matching completed store forwards.
	var match *entry
	soa := &m.soa
	for w, hiW := m.winOff>>6, pos>>6; w <= hiW; w++ {
		sw := soa.storeW[w]
		if w == hiW {
			sw &= (uint64(1) << uint(pos&63)) - 1
		}
		for ; sw != 0; sw &= sw - 1 {
			s := m.winBuf[w<<6|bits.TrailingZeros64(sw)]
			if !s.tag.IsAncestorOrSelf(e.tag) {
				continue // unrelated path: no ordering constraint
			}
			if !s.addrReady {
				return false, false
			}
			if s.addr == addr {
				match = s // stores walked oldest-first: keep the youngest
			}
		}
	}
	if match != nil {
		if match.state != stateDone {
			return false, false // data not yet available to forward
		}
		e.result = match.storeData
		forwarded = true
		m.Stats.StoreForwards++
	} else {
		e.result = m.mem.Load(addr)
	}
	e.addr = addr
	e.addrReady = true
	m.Stats.LoadsExecuted++
	return true, forwarded
}

// schedule queues e's writeback lat cycles from now.
func (m *Machine) schedule(e *entry, lat int) {
	if lat >= len(m.ring) {
		m.machineCheckf("completion-ring", e.pc, "latency %d exceeds completion ring size %d", lat, len(m.ring))
	}
	slot := (m.cycle + uint64(lat)) & m.ringMask
	m.ring[slot] = append(m.ring[slot], e)
}

// writeback completes instructions whose latency expires this cycle:
// results are published to the physical register file (waking dependents)
// and branches resolve on the branch resolution bus.
func (m *Machine) writeback() {
	slot := m.cycle & m.ringMask
	completing := m.ring[slot]
	m.ring[slot] = nil
	// buses counts the resolution buses still free this cycle. Without a
	// limit it starts at -1, so the decrements never bring it to 0.
	buses := m.cfg.ResolutionBuses
	if buses == 0 {
		buses = -1
	}
	for _, e := range completing {
		if e.killed {
			// Dropped from the ring: the last reference to a squashed
			// entry, so it can be recycled now.
			m.freeEntry(e)
			continue
		}
		if buses == 0 && (e.isBranch || e.isIndirect) {
			// All resolution buses are occupied this cycle; the branch
			// retries next cycle (Sec. 3.2.3's bus-contention case).
			next := (m.cycle + 1) & m.ringMask
			m.ring[next] = append(m.ring[next], e)
			continue
		}
		e.state = stateDone
		m.emit(TraceWriteback, e, 0)
		if e.hasDest {
			m.physVal[e.dstPhys] = e.result
			m.physReady.Set(e.dstPhys)
		}
		if e.isBranch {
			m.resolve(e)
			buses--
		}
		if e.isIndirect {
			m.resolveIndirect(e)
			buses--
		}
	}
	// Keep the drained slot's capacity for future completion events.
	m.ring[slot] = completing[:0]
}

// resolve handles a conditional branch's resolution (Sec. 3.2.3): for a
// divergent branch the wrong successor subtree is killed; for a coherent
// branch a misprediction triggers conventional checkpoint recovery.
func (m *Machine) resolve(e *entry) {
	e.resolved = true
	m.emit(TraceResolve, e, resolveArg(e))
	e.path.pendingBranches--
	if e.diverged {
		m.divergences--
		m.killWrongSubtree(e)
		m.releaseCkpt(e)
	} else if e.outcome == e.predTaken {
		m.releaseCkpt(e)
	} else {
		m.recoverMispredict(e)
	}
	m.maybeReclaimZombie(e.path)
}

func (m *Machine) releaseCkpt(e *entry) {
	if e.hasCkpt {
		m.ckpts.Release(e.ckptID)
		e.hasCkpt = false
	}
}

// killWrongSubtree kills every instruction and path on the wrong side of
// divergent branch e's resolution: exactly the entries whose CTX tag has
// the branch's history position valid with the opposite direction. Only
// instructions younger than e can hold that position: it was free when e
// was fetched, so no in-flight tag held it then (auditTag), and only the
// paths e created carry it since (auditTagOwners). The sweep therefore
// starts past e.
func (m *Machine) killWrongSubtree(e *entry) {
	m.Stats.WrongSubtreeKills++
	m.killMatching(e.seq, ctxtag.WrongSide(e.histPos, e.outcome), nil)
}

// recoverMispredict is conventional monopath recovery: kill all younger
// instructions on the branch's path and its descendants, restore the
// checkpointed register map and global history, and redirect fetch.
func (m *Machine) recoverMispredict(e *entry) {
	m.Stats.MonopathRecoveries++
	m.emit(TraceRecover, e, 0)
	p := e.path
	// Revive the path before killing its younger instructions: the kill
	// sweep may squash a younger divergent branch on p, and the zombie
	// reclaimer must not free p while this recovery still needs its map.
	p.fetching = true
	p.halted = false
	p.divergedParent = false

	m.killMatching(e.seq, ctxtag.SubtreeOf(e.tag), p)

	ghr := m.ckpts.Restore(e.ckptID, p.regmap)
	if m.hasCallRet {
		p.ras.CopyFrom(m.ckptRAS[e.ckptID])
	}
	m.ckpts.Release(e.ckptID)
	e.hasCkpt = false

	p.ghr = bpred.PushHistory(ghr, e.outcome)
	if e.outcome {
		p.fetchPC = int(e.inst.Target)
	} else {
		p.fetchPC = e.pc + 1
	}
	p.onTrace = e.onTrace
	p.traceIdx = e.traceIdx + 1
	// MRC comparator: service the recovery from the cache when possible,
	// hiding the front-end refill. The injected instructions are on the
	// corrected path, so the trace cursor handling above stays valid.
	m.injectMRC(p)
}

// killMatching squashes window entries and front-end instructions with
// seq > minSeq whose tag lies in sub, and releases the paths whose tag
// lies in sub (except protect). This is the hardware's parallel tag-match
// kill, expressed sequentially.
//
// The window is in seq order (auditWindow), so the entries at or below
// minSeq are a prefix, found by binary search. The sweep neither tests
// nor moves them.
func (m *Machine) killMatching(minSeq uint64, sub ctxtag.Subtree, protect *path) {
	win := m.window
	lo, hi := 0, len(win)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if win[mid].seq > minSeq {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	kept := lo
	firstKilled := -1
	for i := lo; i < len(win); i++ {
		e := win[i]
		if sub.Contains(e.tag) {
			if firstKilled < 0 {
				firstKilled = i
			}
			m.killEntry(e)
		} else {
			win[kept] = e
			kept++
		}
	}
	if firstKilled >= 0 {
		// Clear the tail so killed entries do not linger in the backing
		// array.
		clear(win[kept:])
		m.window = win[:kept]
		// Entries below the first kill kept their winBuf slots; only the
		// shifted survivors above it need their scheduler state re-derived
		// (kills target young subtrees, so this is usually a short suffix).
		m.soaRebuildFrom(firstKilled, len(win))
	}

	for i, latch := range m.frontEnd {
		if len(latch) == 0 {
			continue
		}
		keptF := latch[:0]
		for _, f := range latch {
			if f.seq > minSeq && sub.Contains(f.tag) {
				m.killEntry(f)
			} else {
				keptF = append(keptF, f)
			}
		}
		for j := len(keptF); j < len(latch); j++ {
			latch[j] = nil
		}
		if len(keptF) == 0 {
			m.frontEnd[i] = nil
			m.freeLatch(keptF)
		} else {
			m.frontEnd[i] = keptF
		}
	}

	for i := range m.slots {
		if p := &m.slots[i].path; p.live && p != protect && sub.Contains(p.tag) {
			m.releasePath(p)
		}
	}
}

// killEntry squashes an entry in the window or the front end, returning
// its resources. An entry that has not renamed holds no register, no
// checkpoint and no completion event; only its branch and divergence
// bookkeeping is undone.
func (m *Machine) killEntry(e *entry) {
	e.killed = true
	m.Stats.Killed++
	m.emit(TraceKill, e, 0)
	if e.hasDest {
		m.freeList.Free(e.dstPhys)
	}
	m.releaseCkpt(e)
	if (e.isBranch || e.isIndirect) && !e.resolved {
		e.path.pendingBranches--
		defer m.maybeReclaimZombie(e.path)
	}
	if e.diverged {
		if !e.resolved {
			m.divergences--
		}
		m.ctxAlloc.Free(e.histPos)
	}
	if e.state != stateExecuting {
		// Not scheduled in the completion ring (never issued, or already
		// written back), so this was the last reference: recycle. Entries
		// mid-flight in the ring are recycled by writeback when their
		// completion event drains.
		m.freeEntry(e)
	}
}

// broadcastClear is the branch commit bus (Sec. 3.2.2/3.2.3): when a
// divergent branch commits, its history position is invalidated in every
// in-flight CTX tag so the position can be reused.
func (m *Machine) broadcastClear(pos int) {
	for _, e := range m.window {
		e.tag = e.tag.ClearPosition(pos)
	}
	for _, latch := range m.frontEnd {
		for _, f := range latch {
			f.tag = f.tag.ClearPosition(pos)
		}
	}
	for _, p := range m.live {
		p.tag = p.tag.ClearPosition(pos)
	}
}

// commit retires up to CommitWidth completed instructions from the window
// head in program order (Sec. 3.1's in-order back end).
func (m *Machine) commit() {
	committed := 0
	for budget := m.cfg.CommitWidth; budget > 0 && len(m.window) > 0; budget-- {
		e := m.window[0]
		if e.state != stateDone {
			break
		}
		m.window[0] = nil
		m.window = m.window[1:]
		m.soaClearPos(m.winOff)
		m.winOff++
		m.commitEntry(e)
		m.freeEntry(e)
		committed++
		if m.halted {
			return
		}
	}
	m.Stats.CommitHist.Add(committed)
	if committed == 0 {
		// Cycle accounting: why did nothing retire this cycle?
		if len(m.window) == 0 {
			m.Stats.StallEmptyWindow++
		} else {
			m.Stats.StallExecution++
		}
	}
}

func (m *Machine) commitEntry(e *entry) {
	m.Stats.Committed++
	m.emit(TraceCommit, e, 0)
	if e.isStore {
		m.mem.Store(e.addr, e.storeData)
		if m.dcache != nil {
			m.Stats.DCacheAccesses++
			if !m.dcache.Access(e.addr) {
				m.Stats.DCacheMisses++
			}
		}
	}
	if e.hasDest {
		m.retireMap.Set(e.inst.Dst, e.dstPhys)
		m.freeList.Free(e.oldPhys)
	}
	if e.isBranch {
		m.commitBranch(e)
	}
	if e.isIndirect {
		m.commitIndirect(e)
	}
	if e.inst.Op == isa.Halt {
		m.halted = true
	}
	if m.cfg.MaxInsts > 0 && m.Stats.Committed >= m.cfg.MaxInsts {
		m.halted = true
	}
}

func (m *Machine) commitBranch(e *entry) {
	if !e.resolved {
		m.machineCheckf("rob-order", e.pc, "committing unresolved branch seq %d", e.seq)
	}
	// Only architecturally-correct branches reach commit, so this is the
	// pollution-free training point for the predictor and the estimator.
	if !m.oracle {
		m.pred.Update(e.pc, e.ghrAtPredict, e.outcome)
	}
	m.archGHR = bpred.PushHistory(m.archGHR, e.outcome)
	correct := e.predTaken == e.outcome
	m.conf.Update(e.pc, e.ghrAtPredict, e.predTaken, correct)

	m.Stats.CondBranches++
	if e.outcome {
		m.Stats.TakenBranches++
	}
	if !correct {
		m.Stats.Mispredicts++
	}
	if e.lowConf {
		m.Stats.LowConf++
		if !correct {
			m.Stats.LowConfMispred++
		}
	} else if !correct {
		m.Stats.HighConfMispred++
	}

	// Trace invariant: a committed branch that tracked the architectural
	// stream must agree with the reference execution.
	if e.onTrace && e.traceIdx < len(m.trace) {
		if r := m.trace[e.traceIdx]; !r.Indirect && r.Taken != e.outcome {
			m.machineCheckf("trace-divergence", e.pc, "committed branch disagrees with reference trace (got taken=%v)", e.outcome)
		}
	}

	if e.diverged {
		// Branch commit bus: invalidate and reclaim the history position.
		m.ctxAlloc.Free(e.histPos)
		m.broadcastClear(e.histPos)
	}
}

// resolveIndirect handles an indirect jump's resolution: a correct BTB
// prediction needs no action; a wrong or missing prediction triggers the
// same checkpoint recovery a mispredicted branch uses, redirected to the
// computed target.
func (m *Machine) resolveIndirect(e *entry) {
	e.resolved = true
	e.path.pendingBranches--
	if e.predTargetOK && e.predTarget == e.actualTarget {
		m.emit(TraceResolve, e, -1)
		m.releaseCkpt(e)
	} else {
		m.emit(TraceResolve, e, e.actualTarget)
		m.recoverIndirect(e)
	}
	m.maybeReclaimZombie(e.path)
}

// recoverIndirect redirects the path to the computed indirect target and
// squashes everything fetched down the predicted (wrong) target.
func (m *Machine) recoverIndirect(e *entry) {
	m.Stats.IndirectRecoveries++
	p := e.path
	p.fetching = true
	p.halted = false
	p.divergedParent = false

	m.killMatching(e.seq, ctxtag.SubtreeOf(e.tag), p)

	ghr := m.ckpts.Restore(e.ckptID, p.regmap)
	if m.hasCallRet {
		p.ras.CopyFrom(m.ckptRAS[e.ckptID])
	}
	m.ckpts.Release(e.ckptID)
	e.hasCkpt = false

	p.ghr = ghr // indirect jumps do not enter the direction history
	p.fetchPC = e.actualTarget
	p.onTrace = e.onTrace
	p.traceIdx = e.traceIdx + 1
}

// commitIndirect trains the BTB with the architecturally correct target
// and accounts statistics.
func (m *Machine) commitIndirect(e *entry) {
	if !e.resolved {
		m.machineCheckf("rob-order", e.pc, "committing unresolved indirect jump seq %d", e.seq)
	}
	if !e.isRet {
		m.btb.Update(e.pc, e.actualTarget)
	}
	m.Stats.IndirectJumps++
	if !e.predTargetOK || e.predTarget != e.actualTarget {
		m.Stats.IndirectMispredicts++
	}
	if e.onTrace && e.traceIdx < len(m.trace) {
		if r := m.trace[e.traceIdx]; r.Indirect && int(r.Target) != e.actualTarget {
			m.machineCheckf("trace-divergence", e.pc, "committed indirect jump disagrees with reference trace (got target %d, want %d)", e.actualTarget, int(r.Target))
		}
	}
}
