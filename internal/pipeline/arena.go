package pipeline

import (
	"maps"
	"slices"

	"repro/internal/bpred"
	"repro/internal/confidence"
	"repro/internal/ctxtag"
	"repro/internal/isa"
	"repro/internal/rename"
)

// arena.go: arena-style reuse of a machine's allocations across
// simulations. An experiment sweep builds one Machine per (benchmark,
// config, replicate) cell; without reuse every cell re-allocates the
// memory's page table and private pages, the physical register file and
// its free list, the checkpoints and their return-address-stack
// snapshots, the window backing array and its SoA scheduler state, the
// completion ring, the CTX slots and allocator, the BTB, the predictor
// and confidence tables, and the object pools the cycle loop warmed up.
// A worker that runs cells back-to-back instead donates the finished
// machine's state to its Arena and the next NewWithArena draws it out
// again, reset to what a fresh build would hold, so steady-state
// per-cell allocation approaches the small state (histograms, the
// machine itself) that escapes with the result. The predictor and the
// estimator are drawn only by a configuration whose normalized kind and
// parameters match the donor's; a predictor that keeps its program's
// Env (bpred.Entry.KeepsEnv) is never donated.
//
// An Arena is NOT safe for concurrent use: it belongs to one worker
// (harness.RunConfigs keeps one per scheduler shard). Buffers are taken
// out of the arena at NewWithArena and returned by Machine.Recycle, so a
// cell that panics or fails mid-run simply never returns them — the
// arena stays valid and the next cell allocates fresh.

// Arena holds the recyclable state of at most one finished machine.
// The zero value is an empty, usable arena.
type Arena struct {
	// cfg is the normalized configuration of the machine that donated
	// the state below.
	cfg        Config
	mem        *isa.Memory
	physVal    []int64
	ready      rename.ReadySet
	freeList   *rename.FreeList
	ckpts      *rename.Checkpoints
	ckptRAS    []*bpred.RAS
	btb        *bpred.BTB
	ctxAlloc   *ctxtag.Allocator
	live       []*path
	pred       bpred.Predictor
	conf       confidence.Estimator
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

// Recycle donates m's buffers and tables to a for the next NewWithArena
// call.
// The machine must be finished (halted or abandoned after an error you
// do not intend to inspect further) and must not be used again: its
// internal state is gutted to make accidental reuse fail loudly.
// Recycling a machine that returned an error is safe for the arena —
// everything donated is fully reset when drawn out — but callers
// typically skip it to keep the error state inspectable.
func (m *Machine) Recycle(a *Arena) {
	if a == nil {
		return
	}
	a.cfg = m.cfg
	a.mem = m.mem
	a.physVal = m.physVal
	a.ready = m.physReady
	a.freeList = m.freeList
	a.ckpts = m.ckpts
	a.ckptRAS = m.ckptRAS
	a.btb = m.btb
	a.ctxAlloc = m.ctxAlloc
	a.live = m.live
	a.pred = nil
	if e, ok := bpred.Lookup(string(m.cfg.Predictor.Kind)); ok && !e.KeepsEnv {
		a.pred = m.pred
	}
	a.conf = m.conf
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
	m.freeList = nil
	m.ckpts = nil
	m.ckptRAS = nil
	m.btb = nil
	m.ctxAlloc = nil
	m.pred = nil
	m.conf = nil
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

// takeFreeList draws the arena's free list reset to total registers, of
// which the first reserved are allocated, or builds one.
func (a *Arena) takeFreeList(total, reserved int) *rename.FreeList {
	fl := a.freeList
	a.freeList = nil
	if fl == nil {
		return rename.NewFreeList(total, reserved)
	}
	fl.Reset(total, reserved)
	return fl
}

// takeCheckpoints draws the arena's checkpoint pool reset to n free
// slots, or builds one.
func (a *Arena) takeCheckpoints(n int) *rename.Checkpoints {
	c := a.ckpts
	a.ckpts = nil
	if c == nil {
		return rename.NewCheckpoints(n)
	}
	c.Reset(n)
	return c
}

// takeCkptRAS draws an n-slot table of checkpoint RAS snapshots, each
// depth deep when withRAS is set. Without it the slots are unused and
// keep whatever snapshots they hold for a later machine. A kept
// snapshot's contents are stale: rename overwrites a snapshot before a
// recovery reads it.
func (a *Arena) takeCkptRAS(n, depth int, withRAS bool) []*bpred.RAS {
	s := a.ckptRAS
	a.ckptRAS = nil
	s = slices.Grow(s[:0], n)[:n]
	for i := range s {
		if withRAS && (s[i] == nil || s[i].Depth() != depth) {
			s[i] = bpred.NewRAS(depth)
		}
	}
	return s
}

// takeBTB draws the arena's BTB, emptied, when it has 2^bits entries, or
// builds one.
func (a *Arena) takeBTB(bits int) *bpred.BTB {
	b := a.btb
	a.btb = nil
	if b == nil || a.cfg.BTBBits != bits {
		return bpred.NewBTB(bits)
	}
	b.Reset()
	return b
}

// takeCtxAlloc draws the arena's CTX history-position allocator, with
// every position free, when it manages width positions, or builds one.
func (a *Arena) takeCtxAlloc(width int) *ctxtag.Allocator {
	c := a.ctxAlloc
	a.ctxAlloc = nil
	if c == nil || c.Width() != width {
		return ctxtag.NewAllocator(width)
	}
	c.Reset()
	return c
}

// takeLive draws an empty live-path list with room for n paths.
func (a *Arena) takeLive(n int) []*path {
	s := a.live
	a.live = nil
	if cap(s) < n {
		return make([]*path, 0, n)
	}
	clear(s[:cap(s)])
	return s[:0]
}

// takePredictor draws the arena's predictor, reset, when it was built
// for spec's kind and parameters; otherwise it returns nil.
func (a *Arena) takePredictor(spec PredictorSpec) bpred.Predictor {
	p := a.pred
	a.pred = nil
	if p == nil || a.cfg.Predictor.Kind != spec.Kind || !maps.Equal(a.cfg.Predictor.Params, spec.Params) {
		return nil
	}
	p.Reset()
	return p
}

// takeEstimator draws the arena's confidence estimator, reset, when it
// was built for spec; otherwise it returns nil.
func (a *Arena) takeEstimator(spec confidence.Spec) confidence.Estimator {
	e := a.conf
	a.conf = nil
	if e == nil || !a.cfg.Confidence.Equal(spec) {
		return nil
	}
	e.Reset()
	return e
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
