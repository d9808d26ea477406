package pipeline

import (
	"repro/internal/rename"
)

// arena.go: arena-style reuse of a machine's large allocations across
// simulations. An experiment sweep builds one Machine per (benchmark,
// config, replicate) cell; without reuse every cell re-allocates the
// memory image, the physical register file, the window backing array and
// its SoA scheduler state, the completion ring, and the object pools the
// cycle loop warmed up. A worker that runs cells back-to-back instead
// donates the finished machine's buffers to its Arena and the next
// NewWithArena draws them out again, so steady-state per-cell allocation
// approaches the small fixed state (predictors, rename tables,
// histograms) that either escapes with the result or depends on the
// configuration shape.
//
// An Arena is NOT safe for concurrent use: it belongs to one worker
// (harness.RunConfigs keeps one per scheduler shard). Buffers are taken
// out of the arena at NewWithArena and returned by Machine.Recycle, so a
// cell that panics or fails mid-run simply never returns them — the
// arena stays valid and the next cell allocates fresh.

// Arena holds the recyclable buffers of at most one finished machine.
// The zero value is an empty, usable arena.
type Arena struct {
	mem        []int64
	physVal    []int64
	ready      rename.ReadySet
	winBuf     []*entry
	soa        soaState
	ring       [][]*entry
	deco       []deco
	paths      []*path
	frontEnd   [][]*finst
	entryPool  []*entry
	finstPool  []*finst
	latchPool  [][]*finst
	fpsScratch []*path
	auditInts  []int
	auditBools []bool
	// rasDepth is the RAS depth the pooled finsts' snapshot buffers were
	// sized for; a different configuration invalidates them.
	rasDepth int
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
	a.paths = m.paths
	a.frontEnd = m.frontEnd
	// Only pooled (free) objects transfer; entries still live in a window
	// cut mid-flight by MaxInsts are simply left to the collector.
	a.entryPool = m.entryPool
	a.finstPool = m.finstPool
	a.latchPool = m.latchPool
	a.fpsScratch = m.fpsScratch
	a.auditInts = m.auditInts
	a.auditBools = m.auditBools
	a.rasDepth = m.cfg.RASDepth

	m.mem = nil
	m.physVal = nil
	m.physReady = rename.ReadySet{}
	m.winBuf = nil
	m.window = nil
	m.soa = soaState{}
	m.ring = nil
	m.deco = nil
	m.paths = nil
	m.frontEnd = nil
	m.entryPool = nil
	m.finstPool = nil
	m.latchPool = nil
	m.halted = true
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

// takePhys returns an n-length PhysReg slice reusing s's capacity. Values
// are not cleared: every live slot is overwritten by soaSet before use.
func takePhys(s []rename.PhysReg, n int) []rename.PhysReg {
	if cap(s) < n {
		return make([]rename.PhysReg, n)
	}
	return s[:n]
}

// takeBytes returns an n-length byte slice reusing s's capacity.
func takeBytes(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return make([]uint8, n)
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

// takePaths draws an n-length nil-cleared CTX table.
func (a *Arena) takePaths(n int) []*path {
	s := a.paths
	a.paths = nil
	if cap(s) < n {
		return make([]*path, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// takeFrontEnd draws an n-length nil-cleared latch array.
func (a *Arena) takeFrontEnd(n int) [][]*finst {
	s := a.frontEnd
	a.frontEnd = nil
	if cap(s) < n {
		return make([][]*finst, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// takePools moves the object pools out of the arena. Pooled entries and
// latches are shape-independent (every field is overwritten at
// allocation); pooled finsts carry RAS snapshot buffers sized for
// rasDepth, which are dropped when the new configuration differs.
func (a *Arena) takePools(rasDepth int) (es []*entry, fs []*finst, ls [][]*finst, fps []*path) {
	es, fs, ls, fps = a.entryPool, a.finstPool, a.latchPool, a.fpsScratch
	a.entryPool, a.finstPool, a.latchPool, a.fpsScratch = nil, nil, nil, nil
	if a.rasDepth != rasDepth {
		for _, f := range fs {
			f.rasSnap = nil
		}
	}
	if fps != nil {
		fps = fps[:0]
	}
	return es, fs, ls, fps
}

// takeAudit moves the audit scratch buffers out of the arena.
func (a *Arena) takeAudit() ([]int, []bool) {
	ints, bools := a.auditInts, a.auditBools
	a.auditInts, a.auditBools = nil, nil
	return ints, bools
}
