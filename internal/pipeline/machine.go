package pipeline

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/confidence"
	"repro/internal/ctxtag"
	"repro/internal/isa"
	"repro/internal/rename"
	"repro/internal/stats"
)

// entryState tracks a window entry through its lifetime.
type entryState uint8

const (
	stateWaiting entryState = iota
	stateExecuting
	stateDone
)

// entry is one dynamic instruction, from fetch to commit: fetch fills in
// what it knows and the entry rides the front-end latches, then rename
// completes it and pushes the same record into the instruction window
// (reorder buffer). Each entry also carries the small CTX state machine of
// Fig. 6 via its tag, which the resolution and commit buses operate on.
//
// Entries are pooled. A recycled entry is reset by one store of its
// entryFlags; every field outside them is written by fetch or rename
// before anything reads it.
type entry struct {
	entryFlags

	seq  uint64
	pc   int
	inst isa.Inst
	path *path
	// pathSeqNo is path.seqNo when the entry was fetched. CTX slots are
	// reused, so a path is identified by (pointer, seqNo); see onLivePath.
	pathSeqNo uint64
	tag       ctxtag.Tag

	// Predecoded issue metadata (copied from the machine's deco table at
	// rename so issue and execute never index it).
	class isa.FUClass
	lat   uint8
	kind  uint8 // dispatch kind (dk*)

	dstPhys rename.PhysReg
	oldPhys rename.PhysReg
	// src1Phys and src2Phys name the machine's sentinel register when the
	// instruction does not read the operand (see Machine.unreadReg).
	src1Phys rename.PhysReg
	src2Phys rename.PhysReg
	result   int64

	// Memory state.
	isLoad    bool
	isStore   bool
	addr      int
	storeData int64

	// Branch state.
	predTarget   int
	predTargetOK bool
	actualTarget int
	predTaken    bool
	lowConf      bool
	histPos      int
	ghrAtPredict uint64
	ckptID       int
	outcome      bool
	traceIdx     int

	// rasSnap captures the path's return-address stack at fetch (after a
	// return's pop); it becomes the checkpoint's RAS snapshot at rename.
	// The buffer survives pooling, so snapshots stop allocating once
	// every pooled entry has one.
	rasSnap *bpred.RAS
	// childT and childN are a divergent branch's successor paths, whose
	// register maps are set when the branch renames.
	childT *path
	childN *path
}

// entryFlags are the entry fields whose zero value is their initial
// state and that the pipeline sets on some instructions only, so a
// recycled entry must not carry them over. fetchEntry resets them with one
// store of this struct instead of zeroing the whole entry.
type entryFlags struct {
	state      entryState
	killed     bool
	hasDest    bool
	readsSrc1  bool
	readsSrc2  bool
	addrReady  bool
	isBranch   bool
	isIndirect bool
	isRet      bool
	diverged   bool
	hasCkpt    bool
	resolved   bool
	onTrace    bool
}

// onLivePath reports whether the path that fetched e still occupies its
// CTX slot: the slot is live and has not been reused by a younger path.
func (e *entry) onLivePath() bool {
	return e.path.live && e.path.seqNo == e.pathSeqNo
}

// path is one CTX-table entry (Fig. 7): a live execution path with its own
// fetch PC, register map, speculative global history and trace cursor.
type path struct {
	id       int
	seqNo    uint64 // creation order; fetch priority
	tag      ctxtag.Tag
	live     bool
	fetching bool
	halted   bool
	// divergedParent marks a path that stopped fetching because its last
	// fetched branch diverged; it stays live (zombie) while older branches
	// on it may still need recovery, then its slot is reclaimed.
	divergedParent bool
	// pendingBranches counts fetched-but-unresolved conditional branches
	// on this path.
	pendingBranches int

	fetchPC int
	ghr     uint64
	// ras is the slot's return-address stack. It survives the slot's
	// reuse and is used only when the program has calls or returns.
	ras    *bpred.RAS
	regmap *rename.Map // the slot's map once the path has one (nil before)
	// fetchStallUntil blocks fetch on this path until the given cycle
	// (instruction cache miss refill).
	fetchStallUntil uint64

	onTrace  bool
	traceIdx int
}

// ctxSlot is the storage of one CTX-table entry. The slot owns the path
// state, including its return-address stack, and the register map a path
// in it uses, so creating a path reinitializes the slot in place and
// allocates nothing.
type ctxSlot struct {
	path   path
	regmap rename.Map
}

// deco is the per-PC predecoded metadata table entry: everything the
// fetch/rename/issue/execute stages would otherwise recompute from the
// opcode on every dynamic instance of the instruction.
type deco struct {
	class     isa.FUClass
	lat       uint8
	kind      uint8 // dispatch kind (dk*)
	hasDest   bool  // writes a register and Dst != r0
	readsSrc1 bool
	readsSrc2 bool
	isLoad    bool
	isStore   bool
}

// Dispatch kinds (deco.kind, entry.kind): fetch switches on them to follow
// control flow, execute to compute the result. dkOther covers the ALU
// operations; loads compute in issueLoad, and nop and halt never execute.
const (
	dkOther uint8 = iota
	dkJmp
	dkHalt
	dkCond
	dkCall
	dkIndirect
	dkStore
)

// Machine is the simulated processor bound to one program.
type Machine struct {
	cfg  Config
	prog *isa.Program

	// Architectural state (committed).
	mem       *isa.Memory
	retireMap *rename.Map

	// Rename state. physReady is a packed per-physical-register bitmap:
	// the wakeup recompute tests it for every pending operand every cycle.
	// Both cover one register past the file: unreadReg, the sentinel an
	// operand the instruction does not read names. Its ready bit is set
	// at build and never cleared, and its value stays 0, so the select
	// walk and execute read every operand without testing whether the
	// instruction reads it. The free list never hands it out.
	physVal   []int64
	physReady rename.ReadySet
	unreadReg rename.PhysReg
	freeList  *rename.FreeList
	ckpts     *rename.Checkpoints
	// ckptRAS holds the return-address-stack snapshot for each checkpoint
	// slot (parallel to ckpts; the rename package stays RAS-agnostic).
	ckptRAS []*bpred.RAS

	// Prediction state.
	pred     bpred.Predictor
	btb      *bpred.BTB
	oracle   bool // PredOracle: predict from the trace
	conf     confidence.Estimator
	trace    *isa.RefTrace
	interp   *isa.Interp // final state of the functional reference run
	refCount uint64      // dynamic instructions the reference run executed

	// Context management.
	ctxAlloc *ctxtag.Allocator
	slots    []ctxSlot // the CTX table, len MaxPaths; a slot is free when its path is not live
	// live lists the live paths in creation (seqNo) order: the fetch
	// priority order.
	live        []*path
	pathSeq     uint64
	divergences int // unresolved divergent branches in flight

	// Pipeline structures.
	frontEnd [][]*entry // FrontEndStages latches, each up to FetchWidth
	window   []*entry   // seq-ordered, alive entries only: winBuf[winOff : winOff+len]
	winBuf   []*entry   // window backing array, compacted when the tail is reached
	winOff   int        // offset of window[0] in winBuf
	ring     [][]*entry // completion events indexed by cycle & ringMask
	ringMask uint64     // len(ring) - 1; len(ring) is a power of two
	// soa is the structure-of-arrays scheduler state over winBuf slots:
	// wakeup and select walk its per-64-entry bitmaps with
	// bits.TrailingZeros64 instead of scanning entry structs (soa.go).
	soa soaState

	// deco caches per-PC decode and classification work (FU class, latency,
	// operand/dest usage, fetch-stage dispatch kind) so the per-cycle loop
	// never re-derives it from the opcode.
	deco []deco

	// Object pools and per-cycle scratch buffers. The steady-state cycle
	// loop allocates nothing: entries and latch slices are recycled, CTX
	// slots own their paths' buffers, and fetch reuses its scratch space.
	entryPool  []*entry
	latchPool  [][]*entry
	fpsScratch []*path

	// Optional memory hierarchy (nil when the paper's always-hit
	// assumption is in effect).
	dcache *cache.Cache
	icache *cache.Cache
	// Optional misprediction recovery cache comparator.
	mrc *mrcCache

	cycle   uint64
	seq     uint64
	halted  bool
	archGHR uint64 // commit-time global history (non-speculative ablation)
	tracer  Tracer
	// pol is the policy-controller state (policy.go); nil when no policy
	// spec is configured, in which case every policy hook is a no-op.
	pol *polState
	// faultHook, when set, is called at the top of every cycle; it is the
	// deterministic fault-injection surface (fault.go).
	faultHook func(cycle uint64)
	// auditInts/auditBools are scratch buffers for the invariant auditor
	// (audit.go), allocated on first sweep and reused.
	auditInts  []int
	auditBools []bool
	// hasCallRet is true when the program contains Call/Ret instructions;
	// when false, the per-branch RAS snapshot machinery is skipped
	// entirely (a measurable win on branch-heavy workloads).
	hasCallRet bool

	Stats stats.Sim
}

// DefaultRefCap caps the reference run of a machine built without
// MaxInsts: a program that has not halted within it is refused. It covers
// compress's 113.8M instructions, the shortest of the paper's runs.
const DefaultRefCap = 1 << 27

// New builds a machine for prog. The functional reference run (which also
// produces the oracle branch trace) executes eagerly so that construction
// surfaces program errors early.
func New(prog *isa.Program, cfg Config) (*Machine, error) {
	return NewWithArena(prog, cfg, nil)
}

// NewWithArena is New drawing the machine's allocations — memory page
// table and private pages, register file and free list, checkpoints and
// their RAS snapshots, window backing array and SoA scheduler state,
// completion ring, predecode table, CTX slots and allocator, live-path
// list, BTB, object pools, and a predictor and estimator of the same
// kind and parameters — from a (see arena.go).
// A nil arena behaves exactly like New. The caller donates the buffers
// back with Machine.Recycle once the simulation is finished; results are
// bit-identical with or without an arena.
func NewWithArena(prog *isa.Program, cfg Config, a *Arena) (*Machine, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if a == nil {
		a = &Arena{}
	}
	// The reference (functional) run bounds the simulation. Without an
	// explicit MaxInsts it is capped at DefaultRefCap; longer programs must
	// set MaxInsts explicitly.
	maxInsts := cfg.MaxInsts
	if maxInsts == 0 {
		maxInsts = DefaultRefCap
	}
	trace, ref, err := isa.TraceCached(prog, maxInsts)
	if err != nil {
		return nil, fmt.Errorf("pipeline: reference run: %w", err)
	}
	if !ref.Halted && cfg.MaxInsts == 0 {
		return nil, fmt.Errorf("pipeline: program does not halt within %d instructions; set MaxInsts to run it longer", uint64(DefaultRefCap))
	}

	m := &Machine{
		cfg:       cfg,
		prog:      prog,
		mem:       a.takeMemory(prog),
		retireMap: rename.NewIdentityMap(),
		physVal:   takeI64(&a.physVal, cfg.PhysRegs+1),
		physReady: rename.ReuseReadySet(a.ready, cfg.PhysRegs+1),
		unreadReg: rename.PhysReg(cfg.PhysRegs),
		freeList:  a.takeFreeList(cfg.PhysRegs, isa.NumRegs),
		ckpts:     a.takeCheckpoints(cfg.Checkpoints),
		trace:     trace,
		interp:    ref,
		refCount:  ref.InstCount,
		ctxAlloc:  a.takeCtxAlloc(cfg.CtxHistoryWidth),
		frontEnd:  a.takeFrontEnd(cfg.FrontEndStages),
	}
	a.ready = rename.ReadySet{}
	for _, in := range prog.Code {
		if in.Op == isa.Call || in.Op == isa.Ret {
			m.hasCallRet = true
			break
		}
	}
	m.slots = a.takeSlots(cfg.MaxPaths)
	m.live = a.takeLive(cfg.MaxPaths)
	if m.hasCallRet {
		for i := range m.slots {
			if r := m.slots[i].path.ras; r == nil || r.Depth() != cfg.RASDepth {
				m.slots[i].path.ras = bpred.NewRAS(cfg.RASDepth)
			}
		}
	}
	m.entryPool, m.latchPool, m.fpsScratch = a.takePools()
	m.auditInts, m.auditBools = a.takeAudit()
	// The completion ring must cover the longest possible operation
	// latency (integer multiply, plus the D-cache miss penalty when the
	// cache model is enabled). It is a power of two long so that schedule
	// and writeback index it with a mask.
	maxLat := 8
	if cfg.EnableDCache {
		maxLat += cfg.DCacheMissLatency + 2
	}
	m.ring = a.takeRing(1 << bits.Len(uint(maxLat+1)))
	m.ringMask = uint64(len(m.ring) - 1)
	// The window is bounded by WindowSize; a 2x backing array makes the
	// head-popping commit path O(1) with amortized-free compaction.
	m.winBuf = a.takeEntries(2 * cfg.WindowSize)
	m.window = m.winBuf[:0]
	m.soaInit(len(m.winBuf), a)
	// Logical registers start architecturally zero and ready, and so does
	// the sentinel.
	for i := 0; i < isa.NumRegs; i++ {
		m.physReady.Set(rename.PhysReg(i))
	}
	m.physReady.Set(m.unreadReg)

	// The predictor is resolved through the open registry: the normalized
	// config's (kind, params) pair picks the registered factory, so a
	// predictor added under internal/bpred (or registered at runtime) runs
	// here with no pipeline edits. The oracle kind is the one
	// pipeline-special case — its registry factory supplies a null pattern
	// table and the machine predicts from the reference trace instead.
	// An arena's predictor and estimator serve a config of the same
	// normalized kind and parameters, reset.
	if m.pred = a.takePredictor(cfg.Predictor); m.pred == nil {
		m.pred, err = bpred.Build(string(cfg.Predictor.Kind), bpred.Params(cfg.Predictor.Params), bpred.Env{
			TargetOf: func(pc int) int { return int(prog.Code[pc].Target) },
		})
		if err != nil {
			return nil, fmt.Errorf("pipeline: predictor %q: %w", string(cfg.Predictor.Kind), err)
		}
	}
	m.oracle = cfg.Predictor.Kind == PredOracle
	if m.conf = a.takeEstimator(cfg.Confidence); m.conf == nil {
		if m.conf, err = confidence.Build(cfg.Confidence); err != nil {
			return nil, err
		}
	}
	if err := m.buildPolicy(); err != nil {
		return nil, err
	}
	m.btb = a.takeBTB(cfg.BTBBits)
	// Checkpoint RAS snapshots are preallocated per slot and overwritten in
	// place (CopyFrom) when a branch renames, so the per-branch snapshot
	// never allocates in steady state.
	m.ckptRAS = a.takeCkptRAS(cfg.Checkpoints, cfg.RASDepth, m.hasCallRet)

	// Predecode the program once; the fetch/rename/issue stages index this
	// table instead of re-deriving classification from the opcode.
	m.deco = a.takeDeco(len(prog.Code))
	for pc, in := range prog.Code {
		d := &m.deco[pc]
		op := in.Op
		d.class = op.Class()
		d.lat = uint8(op.Latency())
		d.hasDest = op.HasDest() && in.Dst != 0
		d.readsSrc1 = op.ReadsSrc1()
		d.readsSrc2 = op.ReadsSrc2()
		d.isLoad = op == isa.Load
		d.isStore = op == isa.Store
		switch {
		case op == isa.Jmp:
			d.kind = dkJmp
		case op == isa.Halt:
			d.kind = dkHalt
		case op.IsCondBranch():
			d.kind = dkCond
		case op == isa.Call:
			d.kind = dkCall
		case op == isa.Jri || op == isa.Ret:
			d.kind = dkIndirect
		case op == isa.Store:
			d.kind = dkStore
		}
	}

	if cfg.EnableMRC {
		m.mrc = newMRC(cfg.MRCBits)
	}
	if cfg.EnableDCache {
		m.dcache = cache.New(cfg.DCache)
	}
	if cfg.EnableICache {
		m.icache = cache.New(cfg.ICache)
	}

	m.Stats.PathHist = stats.NewHistogram(cfg.MaxPaths)
	m.Stats.WindowHist = stats.NewHistogram(cfg.WindowSize)
	m.Stats.CommitHist = stats.NewHistogram(cfg.CommitWidth)

	// Root path: the architectural execution stream, starting from the
	// identity map and an empty return-address stack.
	root := m.newPath(ctxtag.Root(), 0, 0, true, 0)
	m.setMap(root, m.retireMap)
	if m.hasCallRet {
		root.ras.Reset()
	}
	return m, nil
}

// fetchEntry takes an entry from the pool (or the heap when the pool is
// dry) for an instruction fetched on p, resets its flags, and fills in the
// fields every fetched instruction has. The rest of a recycled entry keeps
// its old values until fetch or rename overwrites them; its RAS snapshot
// buffer is reused.
func (m *Machine) fetchEntry(p *path, pc int, in isa.Inst) *entry {
	var e *entry
	if n := len(m.entryPool); n > 0 {
		e = m.entryPool[n-1]
		m.entryPool = m.entryPool[:n-1]
		e.entryFlags = entryFlags{}
	} else {
		e = new(entry)
	}
	m.seq++
	e.seq, e.pc, e.inst = m.seq, pc, in
	e.path, e.pathSeqNo, e.tag = p, p.seqNo, p.tag
	return e
}

// freeEntry recycles an entry. It must no longer be reachable from a
// latch, the window, the completion ring, or any scratch buffer in use.
func (m *Machine) freeEntry(e *entry) {
	m.entryPool = append(m.entryPool, e)
}

// allocLatch takes an empty front-end latch slice from the pool.
func (m *Machine) allocLatch() []*entry {
	if n := len(m.latchPool); n > 0 {
		l := m.latchPool[n-1]
		m.latchPool = m.latchPool[:n-1]
		return l[:0]
	}
	return make([]*entry, 0, m.cfg.FetchWidth)
}

// freeLatch recycles a latch slice's backing storage.
func (m *Machine) freeLatch(l []*entry) {
	m.latchPool = append(m.latchPool, l[:0])
}

// windowPush appends a renamed entry to the window. The backing array is
// twice WindowSize, so compaction triggers at most once per WindowSize
// pushes: amortized O(1), never allocating. Compaction moves entries to
// new slots, so the SoA scheduler state is rebuilt alongside.
func (m *Machine) windowPush(e *entry) {
	if m.winOff+len(m.window) == len(m.winBuf) {
		n := copy(m.winBuf, m.window)
		for i := n; i < n+m.winOff; i++ {
			m.winBuf[i] = nil
		}
		m.winOff = 0
		m.window = m.winBuf[:n]
		m.soaRebuild()
	}
	pos := m.winOff + len(m.window)
	m.window = append(m.window, e)
	m.soaSet(pos, e)
}

// newPath reinitializes a free CTX-table slot for a new path and appends
// the path to the live list. Callers must have verified a slot is free
// (freePathSlots > 0).
func (m *Machine) newPath(tag ctxtag.Tag, fetchPC int, ghr uint64, onTrace bool, traceIdx int) *path {
	for i := range m.slots {
		s := &m.slots[i]
		if s.path.live {
			continue
		}
		m.pathSeq++
		s.path = path{
			id: i, seqNo: m.pathSeq, tag: tag,
			live: true, fetching: true,
			fetchPC: fetchPC, ghr: ghr, ras: s.path.ras,
			onTrace: onTrace, traceIdx: traceIdx,
		}
		m.live = append(m.live, &s.path)
		return &s.path
	}
	m.machineCheckf("ctx-refcount", fetchPC, "newPath with no free CTX slot (%d live of %d)", len(m.live), len(m.slots))
	return nil
}

// setMap gives p its slot's register map, copied from src.
func (m *Machine) setMap(p *path, src *rename.Map) {
	mp := &m.slots[p.id].regmap
	mp.CopyFrom(src)
	p.regmap = mp
}

func (m *Machine) freePathSlots() int {
	return len(m.slots) - len(m.live)
}

func (m *Machine) livePathCount() int {
	return len(m.live)
}

// releasePath frees a CTX-table slot and drops the path from the live
// list, keeping the list in creation order.
func (m *Machine) releasePath(p *path) {
	p.live = false
	p.fetching = false
	p.regmap = nil
	for i, q := range m.live {
		if q == p {
			m.live = append(m.live[:i], m.live[i+1:]...)
			break
		}
	}
}

// maybeReclaimZombie frees a diverged parent whose obligations are done:
// it will never fetch again and no unresolved branch on it can demand a
// recovery restart.
func (m *Machine) maybeReclaimZombie(p *path) {
	if p.live && !p.fetching && p.divergedParent && p.pendingBranches == 0 {
		m.releasePath(p)
	}
}

// Run simulates until the program's Halt commits, MaxInsts instructions
// commit, or a liveness failure is detected.
func (m *Machine) Run() error {
	return m.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: the context is polled
// every ctxCheckInterval cycles (cheap enough to be invisible in the hot
// loop), and a cancelled or expired context aborts the simulation with the
// context's error. A background context adds no per-cycle work.
//
// Internal corruption — a violated invariant caught by the auditor, a
// bookkeeping panic in the pipeline or its resource managers — never
// escapes as a panic: it is contained and returned as a *MachineCheckError
// (see machinecheck.go). The machine must be abandoned after such an error.
func (m *Machine) RunContext(ctx context.Context) (err error) {
	defer func() { m.containMachineCheck(recover(), &err) }()
	const stallLimit = 100_000 // cycles without a commit => liveness bug
	const ctxCheckInterval = 4096
	lastCommit := m.Stats.Committed
	stall := uint64(0)
	done := ctx.Done()
	for !m.halted {
		m.step()
		if done != nil && m.cycle%ctxCheckInterval == 0 {
			select {
			case <-done:
				return fmt.Errorf("pipeline: simulation aborted at cycle %d: %w", m.cycle, ctx.Err())
			default:
			}
		}
		if m.Stats.Committed == lastCommit {
			stall++
			if stall > stallLimit {
				return fmt.Errorf("pipeline: no commit for %d cycles at cycle %d (deadlock)", stallLimit, m.cycle)
			}
		} else {
			stall = 0
			lastCommit = m.Stats.Committed
		}
	}
	m.policyFinalize()
	return nil
}

// step advances one cycle. Stage order (commit, writeback, issue, rename,
// front-end advance, fetch) lets results written back in cycle t feed
// issues in cycle t and lets a resolution in cycle t redirect fetch in
// cycle t, matching the latch-level timing described in Sec. 3/4.
func (m *Machine) step() {
	m.cycle++
	m.Stats.Cycles++
	if m.faultHook != nil {
		m.faultHook(m.cycle)
	}
	committedBefore := m.Stats.Committed
	m.commit()
	if !m.halted {
		m.writeback()
		m.issue()
		m.rename()
		m.advanceFrontEnd()
		m.fetch()
		m.sample()
		// Epoch boundary: the controller observes the completed epoch and
		// its setting governs every cycle until the next boundary. The
		// boundary sits at end-of-cycle, before the invariant sweep, so a
		// setting never changes mid-cycle.
		if m.pol != nil && m.cycle%m.pol.epochCycles == 0 {
			m.policyEpoch()
		}
	}
	// The invariant sweep runs at end-of-cycle, when the stages have reached
	// their inter-cycle fixed point (and also after the halting cycle, as a
	// final-state sweep).
	if m.cfg.Audit == AuditCycle || (m.cfg.Audit == AuditCommit && m.Stats.Committed != committedBefore) {
		m.runAudit()
	}
}

func (m *Machine) sample() {
	if m.pol != nil {
		m.pol.pathSum += uint64(m.livePathCount())
	}
	m.Stats.PathHist.Add(m.livePathCount())
	m.Stats.WindowHist.Add(len(m.window))
	m.Stats.FUCapacity[isa.ClassIntType0] += uint64(m.cfg.NumIntType0)
	m.Stats.FUCapacity[isa.ClassIntType1] += uint64(m.cfg.NumIntType1)
	m.Stats.FUCapacity[isa.ClassFPAdd] += uint64(m.cfg.NumFPAdd)
	m.Stats.FUCapacity[isa.ClassFPMul] += uint64(m.cfg.NumFPMul)
	m.Stats.FUCapacity[isa.ClassMem] += uint64(m.cfg.NumMemPorts)
}

// Cycle returns the current simulated cycle.
func (m *Machine) Cycle() uint64 { return m.cycle }

// Halted reports whether the simulation has finished.
func (m *Machine) Halted() bool { return m.halted }

// FinalRegs reads the committed architectural register file through the
// retirement map.
func (m *Machine) FinalRegs() [isa.NumRegs]int64 {
	var regs [isa.NumRegs]int64
	for r := 0; r < isa.NumRegs; r++ {
		regs[r] = m.physVal[m.retireMap.Get(isa.Reg(r))]
	}
	return regs
}

// Memory returns the committed architectural memory.
func (m *Machine) Memory() *isa.Memory { return m.mem }

// VerifyArchState compares the committed architectural state against the
// functional reference execution and returns a descriptive error on any
// mismatch. This is the execution-driven correctness contract.
func (m *Machine) VerifyArchState() error {
	if m.Stats.Committed != m.refCount {
		return fmt.Errorf("pipeline: committed %d instructions, reference executed %d", m.Stats.Committed, m.refCount)
	}
	regs := m.FinalRegs()
	for r := 0; r < isa.NumRegs; r++ {
		if regs[r] != m.interp.Regs[r] {
			return fmt.Errorf("pipeline: r%d = %d, reference %d", r, regs[r], m.interp.Regs[r])
		}
	}
	// Only pages that either side copied can differ (isa.Memory.Diff).
	if a := m.mem.Diff(m.interp.Mem); a >= 0 {
		return fmt.Errorf("pipeline: mem[%d] = %d, reference %d", a, m.mem.Load(a), m.interp.Mem.Load(a))
	}
	return nil
}
