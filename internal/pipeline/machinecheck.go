package pipeline

import (
	"fmt"
	"runtime/debug"
	"strings"
)

// machinecheck.go implements the simulator's machine-check layer: instead
// of killing the process, every internal-corruption detection on the
// cycle-level hot path — a violated invariant found by the auditor, a
// bookkeeping panic in the pipeline or its resource managers (rename free
// list, checkpoint pool, CTX-tag allocator) — surfaces as a typed
// *MachineCheckError from Run/RunContext, carrying the cycle number, the
// program counter involved, and a snapshot of the machine's resource state.
// Just as the PolyPath hardware must keep architected state correct while
// wrong paths execute speculatively, the simulator contains its own faults:
// a corrupted Machine is abandoned, never trusted, and never fatal to the
// embedding process (polyserve quarantines the offending job instead).

// AuditLevel selects how aggressively the machine audits its own
// micro-architectural invariants (see audit.go for the checked set).
// Auditing never changes simulated results: it only detects corruption, so
// tables are bit-identical across levels.
type AuditLevel int

const (
	// AuditOff disables invariant sweeps (the default; corruption is still
	// contained when it trips a bookkeeping check, but not actively hunted).
	AuditOff AuditLevel = iota
	// AuditCommit sweeps after every cycle that retires at least one
	// instruction: corruption is caught before much wrong state commits.
	AuditCommit
	// AuditCycle sweeps after every cycle: corruption is caught the cycle
	// it happens. This is the chaos-testing and debugging mode.
	AuditCycle
)

var auditLevelNames = map[AuditLevel]string{
	AuditOff:    "off",
	AuditCommit: "commit",
	AuditCycle:  "cycle",
}

func (l AuditLevel) String() string {
	if s, ok := auditLevelNames[l]; ok {
		return s
	}
	return fmt.Sprintf("auditlevel(%d)", int(l))
}

// ParseAuditLevel resolves the canonical spellings "off", "commit" and
// "cycle" (the empty string means off).
func ParseAuditLevel(s string) (AuditLevel, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "off":
		return AuditOff, nil
	case "commit":
		return AuditCommit, nil
	case "cycle":
		return AuditCycle, nil
	default:
		return AuditOff, cfgErr("Audit", "unknown audit level %q (valid: off, commit, cycle)", s)
	}
}

// StateSnapshot summarizes the machine's resource accounting at the moment
// a machine check fired, for post-mortem triage without the Machine itself.
type StateSnapshot struct {
	Cycle           uint64 `json:"cycle"`
	Committed       uint64 `json:"committed"`
	WindowLen       int    `json:"window_len"`
	LivePaths       int    `json:"live_paths"`
	FreeRegs        int    `json:"free_regs"`
	FreeCheckpoints int    `json:"free_checkpoints"`
	Divergences     int    `json:"divergences"`
	CtxTagsInUse    int    `json:"ctx_tags_in_use"`
}

// MachineCheckError reports detected internal corruption of the simulated
// machine: a violated invariant (auditor), a resource-manager bookkeeping
// fault (double free, exhausted pool that was checked as available), or a
// contained runtime panic on the cycle loop. The machine's state is
// untrustworthy past this point; the simulation result must be discarded.
type MachineCheckError struct {
	// Check names the violated invariant (e.g. "free-list", "rob-order",
	// "ctx-refcount", "store-filter", or "panic" for a contained crash).
	Check string
	// Cycle is the simulated cycle at which the check fired.
	Cycle uint64
	// PC is the program counter of the instruction involved (-1 when the
	// fault is not attributable to one instruction).
	PC int
	// Detail describes the specific violation.
	Detail string
	// Snapshot captures the machine's resource accounting at fire time.
	Snapshot StateSnapshot
	// Stack holds the goroutine stack for contained runtime panics (empty
	// for auditor- and bookkeeping-raised checks, whose origin Check/Detail
	// already identify).
	Stack string
}

func (e *MachineCheckError) Error() string {
	if e.PC >= 0 {
		return fmt.Sprintf("pipeline: machine check [%s] at cycle %d pc %d: %s", e.Check, e.Cycle, e.PC, e.Detail)
	}
	return fmt.Sprintf("pipeline: machine check [%s] at cycle %d: %s", e.Check, e.Cycle, e.Detail)
}

// snapshot captures the resource-accounting summary attached to machine
// checks.
func (m *Machine) snapshot() StateSnapshot {
	return StateSnapshot{
		Cycle:           m.cycle,
		Committed:       m.Stats.Committed,
		WindowLen:       len(m.window),
		LivePaths:       len(m.live),
		FreeRegs:        m.freeList.Available(),
		FreeCheckpoints: m.ckpts.Available(),
		Divergences:     m.divergences,
		CtxTagsInUse:    m.ctxAlloc.InUse(),
	}
}

// machineCheckf raises a machine check: it panics with a fully-populated
// *MachineCheckError, which RunContext's containment recover converts into
// an ordinary error return. Using panic keeps the hot path free of error
// plumbing — the cost is paid only on the (terminal) failure path.
func (m *Machine) machineCheckf(check string, pc int, format string, args ...any) {
	panic(&MachineCheckError{
		Check:    check,
		Cycle:    m.cycle,
		PC:       pc,
		Detail:   fmt.Sprintf(format, args...),
		Snapshot: m.snapshot(),
	})
}

// containMachineCheck converts a recovered panic value into the error the
// simulation returns: *MachineCheckError values pass through, anything else
// (a resource-manager bookkeeping panic, an index fault from corrupted
// state) is wrapped with the machine's context and the crashing stack.
func (m *Machine) containMachineCheck(r any, err *error) {
	if r == nil {
		return
	}
	if mce, ok := r.(*MachineCheckError); ok {
		*err = mce
		return
	}
	*err = &MachineCheckError{
		Check:    "panic",
		Cycle:    m.cycle,
		PC:       -1,
		Detail:   fmt.Sprint(r),
		Snapshot: m.snapshot(),
		Stack:    string(debug.Stack()),
	}
}
