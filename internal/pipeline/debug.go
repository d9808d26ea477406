package pipeline

import "repro/internal/isa"

// debug.go exposes a read-only inspection API over the machine's
// micro-architectural state, for the interactive debugger (cmd/polydbg)
// and for tests that need visibility without reaching into internals.

// Step advances the simulation by one cycle (no-op once halted). The
// normal driver is Run; Step exists for interactive debugging.
func (m *Machine) Step() {
	if !m.halted {
		m.step()
	}
}

// WindowEntryView is a snapshot of one instruction window entry.
type WindowEntryView struct {
	Seq      uint64
	PC       int
	Tag      string
	State    string
	Disasm   string
	Branch   bool
	Diverged bool
	Resolved bool
}

// WindowView snapshots the instruction window in program (seq) order,
// up to max entries (0 = all).
func (m *Machine) WindowView(max int) []WindowEntryView {
	n := len(m.window)
	if max > 0 && n > max {
		n = max
	}
	out := make([]WindowEntryView, 0, n)
	for _, e := range m.window[:n] {
		state := "waiting"
		switch e.state {
		case stateExecuting:
			state = "executing"
		case stateDone:
			state = "done"
		}
		out = append(out, WindowEntryView{
			Seq:      e.seq,
			PC:       e.pc,
			Tag:      e.tag.String(),
			State:    state,
			Disasm:   isa.Disasm(e.inst),
			Branch:   e.isBranch,
			Diverged: e.diverged,
			Resolved: e.resolved,
		})
	}
	return out
}

// WindowLen returns the number of in-flight window entries.
func (m *Machine) WindowLen() int { return len(m.window) }

// PathView is a snapshot of one CTX-table entry.
type PathView struct {
	ID       int
	Tag      string
	FetchPC  int
	Fetching bool
	Zombie   bool
	Halted   bool
	Pending  int // unresolved control instructions on this path
	OnTrace  bool
}

// PathsView snapshots the live CTX table.
func (m *Machine) PathsView() []PathView {
	var out []PathView
	for i := range m.slots {
		p := &m.slots[i].path
		if !p.live {
			continue
		}
		out = append(out, PathView{
			ID:       p.id,
			Tag:      p.tag.String(),
			FetchPC:  p.fetchPC,
			Fetching: p.fetching,
			Zombie:   p.divergedParent,
			Halted:   p.halted,
			Pending:  p.pendingBranches,
			OnTrace:  p.onTrace,
		})
	}
	return out
}

// ArchRegs returns the committed architectural register values (the
// retirement-map view), like FinalRegs but usable mid-simulation.
func (m *Machine) ArchRegs() [isa.NumRegs]int64 { return m.FinalRegs() }

// Program returns the simulated program.
func (m *Machine) Program() *isa.Program { return m.prog }
