package pipeline

import "repro/internal/isa"

// advanceFrontEnd moves instruction groups one latch forward where the next
// latch is empty. The last latch feeds rename; a stalled rename backs the
// whole front end up, which in turn stalls fetch.
func (m *Machine) advanceFrontEnd() {
	for i := len(m.frontEnd) - 2; i >= 0; i-- {
		if len(m.frontEnd[i+1]) == 0 && len(m.frontEnd[i]) > 0 {
			m.frontEnd[i+1] = m.frontEnd[i]
			m.frontEnd[i] = nil
		}
	}
}

// rename consumes instructions from the last front-end latch in order,
// renaming registers and dispatching into the instruction window. It stops
// at the first instruction that cannot proceed (window full, free list or
// checkpoint pool empty) — an in-order stall.
func (m *Machine) rename() {
	latch := m.frontEnd[len(m.frontEnd)-1]
	consumed := 0
	for consumed < len(latch) && consumed < m.cfg.RenameWidth {
		if !m.renameOne(latch[consumed]) {
			break
		}
		consumed++
	}
	if consumed == len(latch) {
		m.frontEnd[len(m.frontEnd)-1] = nil
		if latch != nil {
			m.freeLatch(latch)
		}
	} else if consumed > 0 {
		// Move the rest to the front rather than keep latch[consumed:],
		// whose shrunken capacity the pool would hand back to fetch.
		n := copy(latch, latch[consumed:])
		clear(latch[n:])
		m.frontEnd[len(m.frontEnd)-1] = latch[:n]
	}
}

// renameOne renames and dispatches a single instruction: it completes the
// entry fetch started and pushes it into the window. It returns false on a
// structural stall, leaving the instruction in the latch.
func (m *Machine) renameOne(e *entry) bool {
	if len(m.window) >= m.cfg.WindowSize {
		return false
	}
	p := e.path
	d := &m.deco[e.pc]
	if d.hasDest && m.freeList.Available() == 0 {
		return false
	}
	isCtl := e.isBranch || e.isIndirect
	if isCtl && m.ckpts.Available() == 0 {
		return false
	}

	e.class = d.class
	e.lat = d.lat
	e.kind = d.kind
	e.isLoad = d.isLoad
	e.isStore = d.isStore
	e.src1Phys, e.src2Phys = m.unreadReg, m.unreadReg
	if d.readsSrc1 {
		e.readsSrc1 = true
		e.src1Phys = p.regmap.Get(e.inst.Src1)
	}
	if d.readsSrc2 {
		e.readsSrc2 = true
		e.src2Phys = p.regmap.Get(e.inst.Src2)
	}
	if isCtl {
		// Checkpoint the register map and pre-prediction history for
		// misprediction recovery (coherent branches) or, for divergent
		// branches, as the second map copy the paper accounts for.
		id, ok := m.ckpts.Take(p.regmap, e.ghrAtPredict)
		if !ok {
			return false
		}
		e.ckptID = id
		e.hasCkpt = true
		// The return-address stack is speculative per-path state like the
		// register map and the history register: the snapshot captured at
		// fetch (post-pop for returns) rides along with the checkpoint,
		// copied into the slot's preallocated buffer.
		if m.hasCallRet {
			m.ckptRAS[id].CopyFrom(e.rasSnap)
		}
		if e.diverged {
			m.setMap(e.childT, p.regmap)
			m.setMap(e.childN, p.regmap)
		}
	}
	if d.hasDest {
		np, ok := m.freeList.Alloc()
		if !ok {
			// Cannot happen: availability checked above, and the branch
			// path allocates no registers in between.
			m.machineCheckf("free-list", e.pc, "free list exhausted after availability check (raced)")
		}
		e.hasDest = true
		e.dstPhys = np
		e.oldPhys = p.regmap.Set(e.inst.Dst, np)
		m.physReady.Clear(np)
	}
	if op := e.inst.Op; op == isa.Nop || op == isa.Halt {
		e.state = stateDone // no functional unit needed
	}
	m.windowPush(e)
	m.Stats.Renamed++
	m.emit(TraceRename, e, 0)
	return true
}
