package pipeline

import "repro/internal/rename"

// fault.go exposes the deterministic fault-injection surface the chaos
// tests drive: a per-cycle hook plus primitives that corrupt one
// piece of micro-architectural state the way a hardware fault would (a bit
// flip in a rename structure, a lost wakeup broadcast, a corrupted CTX
// tag). The hooks are always compiled in — no build tags — and cost one nil
// check per cycle when unused, so chaos tests exercise exactly the binary
// that ships.
//
// Every fault kind is chosen so the invariant auditor (audit.go) detects it
// deterministically: injecting under AuditCycle yields a machine check the
// same cycle, which is what the chaos tests assert.

// Fault enumerates the injectable micro-architectural faults.
type Fault int

const (
	// FaultRenameBitFlip redirects a window entry's destination register to
	// a currently-free physical register, as a flipped bit in the rename CAM
	// would (detected: free-list reference sweep).
	FaultRenameBitFlip Fault = iota
	// FaultRenameMapFlip corrupts a live path's logical-to-physical map so a
	// logical register names a free physical register (detected: path map
	// sweep).
	FaultRenameMapFlip
	// FaultDropWakeup unpublishes a completed producer's result, simulating
	// a lost wakeup broadcast (detected: done-but-not-ready check).
	FaultDropWakeup
	// FaultFreeListFlip toggles one register's allocation bit without
	// touching the free stack, desynchronizing the free list's two
	// structures (detected: free-list consistency audit).
	FaultFreeListFlip
	// FaultCtxTagFlip flips one history position of a window entry's CTX
	// tag, the fault the store buffer's path filter and the kill buses are
	// most sensitive to (detected: tag-vs-path drift check).
	FaultCtxTagFlip
)

// String names the fault kind for logs and test output.
func (f Fault) String() string {
	switch f {
	case FaultRenameBitFlip:
		return "rename-bit-flip"
	case FaultRenameMapFlip:
		return "rename-map-flip"
	case FaultDropWakeup:
		return "drop-wakeup"
	case FaultFreeListFlip:
		return "free-list-flip"
	case FaultCtxTagFlip:
		return "ctx-tag-flip"
	default:
		return "unknown-fault"
	}
}

// SetFaultHook installs fn to be called at the top of every cycle (before
// commit), with the cycle number about to execute. The hook may call
// InjectFault. A nil fn removes the hook.
func (m *Machine) SetFaultHook(fn func(cycle uint64)) { m.faultHook = fn }

// InjectFault corrupts machine state according to kind, using arg to pick
// the victim deterministically. It reports whether a fault was actually
// injected: some kinds need a victim in a particular state (e.g. a
// completed producer for FaultDropWakeup), and the injector retries on a
// later cycle when none exists yet. After a successful injection the
// machine's results are void; the only supported continuation is detection
// via the auditor or a contained bookkeeping panic.
func (m *Machine) InjectFault(kind Fault, arg uint64) bool {
	switch kind {
	case FaultRenameBitFlip:
		victim := m.pickEntry(arg, func(e *entry) bool { return e.hasDest })
		if victim == nil {
			return false
		}
		fr, ok := m.pickFreeReg(arg)
		if !ok {
			return false
		}
		victim.dstPhys = fr
		return true
	case FaultRenameMapFlip:
		fr, ok := m.pickFreeReg(arg)
		if !ok {
			return false
		}
		for i := range m.slots {
			if p := &m.slots[i].path; p.live && p.regmap != nil {
				p.regmap.Set(0, fr)
				return true
			}
		}
		return false
	case FaultDropWakeup:
		// Only completed producers stuck behind an incomplete older entry
		// qualify: they cannot retire this cycle, so the end-of-cycle audit
		// is guaranteed to observe the dropped wakeup.
		blocked := false
		var candidates []*entry
		for _, e := range m.window {
			if e.state != stateDone {
				blocked = true
				continue
			}
			if blocked && e.hasDest {
				candidates = append(candidates, e)
			}
		}
		if len(candidates) == 0 {
			return false
		}
		victim := candidates[arg%uint64(len(candidates))]
		m.physReady.Clear(victim.dstPhys)
		return true
	case FaultFreeListFlip:
		m.freeList.FlipInUse(rename.PhysReg(arg % uint64(m.freeList.Total())))
		return true
	case FaultCtxTagFlip:
		victim := m.pickEntry(arg, (*entry).onLivePath)
		if victim == nil {
			return false
		}
		pos := int(arg % uint64(m.ctxAlloc.Width()))
		if victim.tag.Valid(pos) {
			victim.tag = victim.tag.WithPosition(pos, !victim.tag.Taken(pos))
		} else {
			victim.tag = victim.tag.WithPosition(pos, true)
		}
		return true
	default:
		return false
	}
}

// pickEntry deterministically selects the arg-th window entry satisfying ok
// (wrapping), or nil when none does.
func (m *Machine) pickEntry(arg uint64, ok func(*entry) bool) *entry {
	var candidates []*entry
	for _, e := range m.window {
		if ok(e) {
			candidates = append(candidates, e)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	return candidates[arg%uint64(len(candidates))]
}

// pickFreeReg deterministically selects a currently-free physical register.
func (m *Machine) pickFreeReg(arg uint64) (rename.PhysReg, bool) {
	total := m.freeList.Total()
	start := int(arg % uint64(total))
	for i := 0; i < total; i++ {
		p := rename.PhysReg((start + i) % total)
		if !m.freeList.IsAllocated(p) {
			return p, true
		}
	}
	return 0, false
}
