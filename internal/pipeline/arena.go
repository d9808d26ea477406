package pipeline

import (
	"repro/internal/isa"
	"repro/internal/rename"
)

// arena.go: arena-style reuse of a machine's large allocations across
// simulations. An experiment sweep builds one Machine per (benchmark,
// config, replicate) cell; without reuse every cell re-allocates the
// memory's page table and private pages, the physical register file, the
// window backing array and its SoA scheduler state, the completion ring,
// the CTX slots, and the object pools the cycle loop warmed up. A worker
// that runs cells back-to-back instead donates the finished machine's
// buffers to its Arena and the next NewWithArena draws them out again,
// so steady-state per-cell allocation approaches the small fixed state
// (predictors, rename tables, histograms) that either escapes with the
// result or depends on the configuration shape.
//
// An Arena is NOT safe for concurrent use: it belongs to one worker
// (harness.RunConfigs keeps one per scheduler shard). Buffers are taken
// out of the arena at NewWithArena and returned by Machine.Recycle, so a
// cell that panics or fails mid-run simply never returns them — the
// arena stays valid and the next cell allocates fresh.

// Arena holds the recyclable buffers of at most one finished machine.
// The zero value is an empty, usable arena.
type Arena struct {
	mem        *isa.Memory
	physVal    []int64
	ready      rename.ReadySet
	winBuf     []*entry
	soa        soaState
	ring       [][]*entry
	deco       []deco
	slots      []ctxSlot
	frontEnd   [][]*entry
	entryPool  []*entry
	latchPool  [][]*entry
	fpsScratch []*path
	auditInts  []int
	auditBools []bool
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Recycle donates m's large buffers to a for the next NewWithArena call.
// The machine must be finished (halted or abandoned after an error you
// do not intend to inspect further) and must not be used again: its
// internal state is gutted to make accidental reuse fail loudly.
// Recycling a machine that returned an error is safe for the arena —
// every donated buffer is fully reset when drawn out — but callers
// typically skip it to keep the error state inspectable.
func (m *Machine) Recycle(a *Arena) {
	if a == nil {
		return
	}
	a.mem = m.mem
	a.physVal = m.physVal
	a.ready = m.physReady
	a.winBuf = m.winBuf
	a.soa = m.soa
	a.ring = m.ring
	a.deco = m.deco
	a.slots = m.slots
	a.frontEnd = m.frontEnd
	// Only pooled (free) objects transfer; entries still in flight when
	// MaxInsts cut the run are simply left to the collector.
	a.entryPool = m.entryPool
	a.latchPool = m.latchPool
	a.fpsScratch = m.fpsScratch
	a.auditInts = m.auditInts
	a.auditBools = m.auditBools

	m.mem = nil
	m.physVal = nil
	m.physReady = rename.ReadySet{}
	m.winBuf = nil
	m.window = nil
	m.soa = soaState{}
	m.ring = nil
	m.deco = nil
	m.slots = nil
	m.live = nil
	m.frontEnd = nil
	m.entryPool = nil
	m.latchPool = nil
	m.halted = true
}

// takeMemory draws the arena's memory, reset to prog's image, or builds
// a new one. The reset keeps the recycled page table and private pages.
func (a *Arena) takeMemory(prog *isa.Program) *isa.Memory {
	mem := a.mem
	a.mem = nil
	if mem == nil {
		return isa.NewMemory(prog)
	}
	mem.Reset(prog)
	return mem
}

// takeI64 draws an n-length zeroed []int64 from buf, or allocates one.
func takeI64(buf *[]int64, n int) []int64 {
	s := *buf
	*buf = nil
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// takeWords returns an n-length zeroed word slice reusing s's capacity.
func takeWords(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// takeOps returns an n-length soaOp slice reusing s's capacity. Values
// are not cleared: every live slot is overwritten by soaSet before use.
func takeOps(s []soaOp, n int) []soaOp {
	if cap(s) < n {
		return make([]soaOp, n)
	}
	return s[:n]
}

// takeSoA removes the arena's SoA state (the per-array sizing happens in
// soaInit).
func (a *Arena) takeSoA() soaState {
	s := a.soa
	a.soa = soaState{}
	return s
}

// takeEntries draws an n-length nil-cleared entry-pointer slice.
func (a *Arena) takeEntries(n int) []*entry {
	s := a.winBuf
	a.winBuf = nil
	if cap(s) < n {
		return make([]*entry, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// takeRing draws an n-slot completion ring. Inner slices keep their
// capacity with length reset, so the ring is allocation-free again after
// the first few cycles.
func (a *Arena) takeRing(n int) [][]*entry {
	s := a.ring
	a.ring = nil
	if cap(s) < n {
		return make([][]*entry, n)
	}
	s = s[:cap(s)]
	for i := range s {
		if s[i] != nil {
			s[i] = s[i][:0]
		}
	}
	return s[:n]
}

// takeDeco draws an n-length zeroed predecode table.
func (a *Arena) takeDeco(n int) []deco {
	s := a.deco
	a.deco = nil
	if cap(s) < n {
		return make([]deco, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// takeSlots draws an n-slot CTX table with every slot free. The slots
// keep their return-address stacks, whose depth NewWithArena checks.
func (a *Arena) takeSlots(n int) []ctxSlot {
	s := a.slots
	a.slots = nil
	if cap(s) < n {
		s = make([]ctxSlot, n)
	}
	s = s[:n]
	for i := range s {
		s[i].path = path{ras: s[i].path.ras}
	}
	return s
}

// takeFrontEnd draws an n-length nil-cleared latch array.
func (a *Arena) takeFrontEnd(n int) [][]*entry {
	s := a.frontEnd
	a.frontEnd = nil
	if cap(s) < n {
		return make([][]*entry, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// takePools moves the object pools out of the arena. Pooled latches are
// shape-independent. Fetch resets a pooled entry's flags and overwrites
// its other fields before use, except for its RAS snapshot buffer, whose
// depth snapshotRAS checks.
func (a *Arena) takePools() (es []*entry, ls [][]*entry, fps []*path) {
	es, ls, fps = a.entryPool, a.latchPool, a.fpsScratch
	a.entryPool, a.latchPool, a.fpsScratch = nil, nil, nil
	if fps != nil {
		fps = fps[:0]
	}
	return es, ls, fps
}

// takeAudit moves the audit scratch buffers out of the arena.
func (a *Arena) takeAudit() ([]int, []bool) {
	ints, bools := a.auditInts, a.auditBools
	a.auditInts, a.auditBools = nil, nil
	return ints, bools
}
