package workload

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/isa"
)

// BranchKind classifies the predictability character of a generated
// conditional branch.
type BranchKind int

const (
	// KindLoop is a counted inner loop's back edge: (trip-1) taken, one
	// not-taken, fully learnable by gshare.
	KindLoop BranchKind = iota
	// KindPattern is a periodic branch (T^(period-1) N repeating),
	// learnable once each history context trains.
	KindPattern
	// KindBernoulli is a data-driven branch whose outcome is an
	// independent Bernoulli(bias) draw from a pre-generated data stream —
	// unpredictable beyond its bias. Bias 0.5 models "go"-like chaotic
	// control flow; bias ~0.95 models m88ksim-like isolated mispredicts.
	KindBernoulli
	// KindSwitch is an indirect jump through a Fanout-entry jump table,
	// selecting a uniformly random case per iteration — gcc/perl-style
	// switch statements. The target is predicted by the BTB, not by the
	// direction predictor, and never diverges.
	KindSwitch
	// KindCall is a direct call to a generated function that does a block
	// of work and returns (CallDepth 2 adds a nested call to a shared
	// leaf). Returns are predicted by the return-address stack.
	KindCall
)

// BranchSpec describes one static conditional branch site in the generated
// program's main loop body.
type BranchSpec struct {
	Kind   BranchKind
	Bias   float64 // Bernoulli taken-probability
	Period int     // Pattern period (2..16)
	Trip   int     // Loop trip count (2..64)
	Fanout int     // Switch case count (2..16)
	// CallDepth is the nesting depth of a KindCall site (1 = leaf call,
	// 2 = the callee calls a shared second-level function).
	CallDepth int
	// PhaseLen, when positive on a Bernoulli branch, makes the branch
	// phased: the taken-probability alternates between Bias and Bias2
	// every PhaseLen stream positions (≈ PhaseLen loop iterations). This
	// models programs whose branch behaviour changes by program phase —
	// the m88ksim PVN anomaly the adaptive-policy experiments target.
	PhaseLen int
	// Bias2 is the second phase's taken-probability (required with
	// PhaseLen).
	Bias2 float64
}

// Spec parameterizes a synthetic benchmark.
type Spec struct {
	Name string
	Seed int64
	// TargetInsts is the approximate dynamic instruction count; the
	// generator solves for the outer-loop iteration count.
	TargetInsts uint64
	// Branches lists the static branch sites of one loop iteration.
	Branches []BranchSpec
	// BlockLen is the number of work instructions per diamond arm.
	BlockLen int
	// Chains is the number of independent dependence chains the work
	// blocks cycle through; it sets the workload's ILP.
	Chains int
	// LoadFrac/StoreFrac/MulFrac/FPFrac choose the instruction mix of the
	// work blocks (remaining fraction is 1-cycle integer ALU).
	LoadFrac, StoreFrac, MulFrac, FPFrac float64
	// PredDepth appends a chain of dependent ALU operations between a
	// Bernoulli branch's stream load and the branch itself, modelling the
	// data-dependence depth of real SPECint predicates. It lengthens
	// branch resolution latency (and thus the misprediction penalty)
	// without changing the branch's outcome distribution.
	PredDepth int
}

// Register conventions used by the generator.
const (
	rOuter      = isa.Reg(1)  // outer loop down-counter
	rStream     = isa.Reg(2)  // data-stream index (per-iteration)
	rPred       = isa.Reg(3)  // predicate scratch
	rInner      = isa.Reg(4)  // inner loop counter
	rTmp        = isa.Reg(5)  // pattern compare scratch
	rScratch    = isa.Reg(6)  // scratch memory base
	rMask       = isa.Reg(7)  // stream wrap mask
	rChain0     = isa.Reg(8)  // first of Chains chain registers (8..15)
	rPat0       = isa.Reg(16) // first pattern counter (16..23)
	rLink1      = isa.Reg(24) // level-1 call link register
	rLink2      = isa.Reg(25) // level-2 (leaf) call link register
	maxChains   = 8
	maxPatterns = 8

	streamWords  = 1 << 14 // per-branch Bernoulli stream length (wraps)
	scratchWords = 512     // scratch read/write area for work blocks
)

// pilotIterations is the outer-loop count of the pilot run that measures
// a program's instructions per iteration.
const pilotIterations = 4

// pilotImages recycles the pilot run's memory image across Generate
// calls, which may run concurrently. It holds *[]int64 so that Put does
// not allocate.
var pilotImages = sync.Pool{New: func() any { return new([]int64) }}

// Generate builds the synthetic program for spec. It runs the program it
// will return for pilotIterations outer iterations to measure instructions
// per iteration, then sets the outer-loop count that meets TargetInsts in
// place. No other word depends on the count, so the result is exactly the
// program a build with the final count would produce.
func Generate(spec Spec) (*isa.Program, error) {
	if err := checkSpec(spec); err != nil {
		return nil, err
	}
	p, err := build(spec)
	if err != nil {
		return nil, err
	}
	img := pilotImages.Get().(*[]int64)
	*img = p.Image(*img)
	it := &isa.Interp{Prog: p, Mem: *img}
	err = it.Run(1 << 24)
	pilotImages.Put(img)
	if err != nil {
		return nil, fmt.Errorf("workload: pilot run: %w", err)
	}
	if !it.Halted {
		return nil, fmt.Errorf("workload: pilot run did not halt")
	}
	perIter := it.InstCount / pilotIterations
	if perIter == 0 {
		perIter = 1
	}
	iters := int(spec.TargetInsts / perIter)
	if iters < 8 {
		iters = 8
	}
	p.Code[0].Imm = int64(iters) // the prologue's Li rOuter
	return p, nil
}

// MustGenerate is Generate that panics on error; generator specs are
// compile-time constants in this repo, so errors are programming mistakes.
func MustGenerate(spec Spec) *isa.Program {
	p, err := Generate(spec)
	if err != nil {
		panic(err)
	}
	return p
}

func checkSpec(spec Spec) error {
	if spec.TargetInsts == 0 {
		return fmt.Errorf("workload: %s: TargetInsts must be positive", spec.Name)
	}
	if spec.Chains < 1 || spec.Chains > maxChains {
		return fmt.Errorf("workload: %s: Chains %d out of range [1,%d]", spec.Name, spec.Chains, maxChains)
	}
	if spec.BlockLen < 1 {
		return fmt.Errorf("workload: %s: BlockLen must be positive", spec.Name)
	}
	if spec.PredDepth < 0 || spec.PredDepth > 32 {
		return fmt.Errorf("workload: %s: PredDepth %d out of [0,32]", spec.Name, spec.PredDepth)
	}
	patterns := 0
	for i, b := range spec.Branches {
		switch b.Kind {
		case KindBernoulli:
			if b.Bias <= 0 || b.Bias >= 1 {
				return fmt.Errorf("workload: %s: branch %d: bias %v out of (0,1)", spec.Name, i, b.Bias)
			}
			if b.PhaseLen < 0 || b.PhaseLen > streamWords/2 {
				return fmt.Errorf("workload: %s: branch %d: phase length %d out of [0,%d]", spec.Name, i, b.PhaseLen, streamWords/2)
			}
			if b.PhaseLen > 0 && (b.Bias2 <= 0 || b.Bias2 >= 1) {
				return fmt.Errorf("workload: %s: branch %d: phase bias %v out of (0,1)", spec.Name, i, b.Bias2)
			}
			if b.PhaseLen == 0 && b.Bias2 != 0 {
				return fmt.Errorf("workload: %s: branch %d: Bias2 set without PhaseLen", spec.Name, i)
			}
		case KindPattern:
			if b.Period < 2 || b.Period > 16 {
				return fmt.Errorf("workload: %s: branch %d: period %d out of [2,16]", spec.Name, i, b.Period)
			}
			patterns++
		case KindLoop:
			if b.Trip < 2 || b.Trip > 64 {
				return fmt.Errorf("workload: %s: branch %d: trip %d out of [2,64]", spec.Name, i, b.Trip)
			}
		case KindSwitch:
			if b.Fanout < 2 || b.Fanout > 16 {
				return fmt.Errorf("workload: %s: branch %d: fanout %d out of [2,16]", spec.Name, i, b.Fanout)
			}
		case KindCall:
			if b.CallDepth < 1 || b.CallDepth > 2 {
				return fmt.Errorf("workload: %s: branch %d: call depth %d out of [1,2]", spec.Name, i, b.CallDepth)
			}
		default:
			return fmt.Errorf("workload: %s: branch %d: unknown kind %d", spec.Name, i, b.Kind)
		}
	}
	if patterns > maxPatterns {
		return fmt.Errorf("workload: %s: at most %d pattern branches supported", spec.Name, maxPatterns)
	}
	if len(spec.Branches) == 0 {
		return fmt.Errorf("workload: %s: need at least one branch", spec.Name)
	}
	return nil
}

// dataWords is the size of build's data segment: one stream per
// Bernoulli or switch branch, the scratch area, and each switch's jump
// table.
func dataWords(spec Spec) int {
	n := scratchWords
	for _, br := range spec.Branches {
		switch br.Kind {
		case KindBernoulli:
			n += streamWords
		case KindSwitch:
			n += streamWords + br.Fanout
		}
	}
	return n
}

// build emits spec's program with the outer-loop count pilotIterations,
// set by the prologue's first instruction.
func build(spec Spec) (*isa.Program, error) {
	b := NewBuilder(spec.Name)
	b.data = make([]int64, 0, dataWords(spec))
	rng := rand.New(rand.NewSource(spec.Seed))

	// Data segment: one stream per data-driven branch, drawn in place,
	// then the scratch area. Switch jump tables follow, appended as the
	// code that indexes them is emitted.
	streamBase := make([]int64, len(spec.Branches))
	for i, br := range spec.Branches {
		switch br.Kind {
		case KindBernoulli:
			base, words := b.Alloc(streamWords)
			for w := range words {
				// Phased branches alternate between Bias and Bias2 every
				// PhaseLen positions; exactly one draw per word either way,
				// so adding a phase never perturbs the other branches'
				// streams for the same seed.
				bias := br.Bias
				if br.PhaseLen > 0 && (w/br.PhaseLen)%2 == 1 {
					bias = br.Bias2
				}
				if rng.Float64() < bias {
					words[w] = 1
				}
			}
			streamBase[i] = base
		case KindSwitch:
			base, words := b.Alloc(streamWords)
			for w := range words {
				words[w] = int64(rng.Intn(br.Fanout))
			}
			streamBase[i] = base
		}
	}
	scratchBase, _ := b.Alloc(scratchWords)

	// Prologue.
	b.Li(rOuter, pilotIterations)
	b.Li(rStream, 0)
	b.Li(rMask, streamWords-1)
	b.Li(rScratch, scratchBase)
	for c := 0; c < spec.Chains; c++ {
		b.Li(rChain0+isa.Reg(c), int64(rng.Intn(1000)+1))
	}
	patIdx := 0
	for _, br := range spec.Branches {
		if br.Kind == KindPattern {
			b.Li(rPat0+isa.Reg(patIdx), 0)
			patIdx++
		}
	}

	b.Label("outer")
	patIdx = 0
	w := &workEmitter{b: b, spec: spec, rng: rng, lastStore: -1}
	type genFunc struct {
		name  string
		depth int
	}
	var funcs []genFunc
	needLeaf := false
	for i, br := range spec.Branches {
		then := fmt.Sprintf("then_%d", i)
		join := fmt.Sprintf("join_%d", i)
		switch br.Kind {
		case KindBernoulli:
			// rPred = stream[streamBase + rStream]; branch taken iff 1.
			// The dependent tail (rPred += rPred) preserves zero-ness, so
			// the outcome is still the Bernoulli draw, but the branch can
			// only resolve PredDepth cycles after the load returns.
			b.Load(rPred, rStream, streamBase[i])
			for d := 0; d < spec.PredDepth; d++ {
				b.Op3(isa.Add, rPred, rPred, rPred)
			}
			b.Branch(isa.Bne, rPred, 0, then)
		case KindPattern:
			pc := rPat0 + isa.Reg(patIdx)
			patIdx++
			// counter++; taken while counter % period != 0:
			//   tmp = (counter < period) after increment; on not-taken
			//   reset the counter.
			b.OpI(isa.Addi, pc, pc, 1)
			b.OpI(isa.Slti, rTmp, pc, int64(br.Period))
			b.Branch(isa.Bne, rTmp, 0, then)
			b.Li(pc, 0) // not-taken arm begins with the reset
		case KindCall:
			// A call site: the function body is emitted after Halt.
			name := fmt.Sprintf("fn_%d", i)
			funcs = append(funcs, genFunc{name: name, depth: br.CallDepth})
			if br.CallDepth == 2 {
				needLeaf = true
			}
			b.Call(rLink1, name)
			continue
		case KindSwitch:
			// switch (stream[i]) { case 0..Fanout-1 }: load the case
			// index, index the jump table, and jump indirectly. Each case
			// arm does a short block of work and rejoins.
			table := make([]int64, br.Fanout)
			for c := range table {
				table[c] = b.DataLabel(fmt.Sprintf("case_%d_%d", i, c))
			}
			b.Load(rPred, rStream, streamBase[i])   // case index
			b.OpI(isa.Addi, rPred, rPred, table[0]) // table address
			b.Load(rPred, rPred, 0)                 // target PC
			b.Emit(isa.Inst{Op: isa.Jri, Src1: rPred})
			for c := 0; c < br.Fanout; c++ {
				b.Label(fmt.Sprintf("case_%d_%d", i, c))
				w.emit(spec.BlockLen / 2)
				b.Jump(join)
			}
			b.Label(join)
			continue
		case KindLoop:
			// A counted inner loop; its back edge is the branch site. The
			// body carries half a diamond arm's worth of work so the
			// instruction-mix knobs shape loop-dominated benchmarks too.
			body := spec.BlockLen / 2
			if body < 2 {
				body = 2
			}
			b.Li(rInner, int64(br.Trip))
			b.Label(fmt.Sprintf("inner_%d", i))
			w.emitLight(body)
			b.OpI(isa.Addi, rInner, rInner, -1)
			b.Branch(isa.Bne, rInner, 0, fmt.Sprintf("inner_%d", i))
			// Loops have no diamond arms; continue to next site.
			continue
		}
		// Not-taken (fall-through) arm.
		w.emit(spec.BlockLen)
		b.Jump(join)
		b.Label(then)
		w.emit(spec.BlockLen)
		b.Label(join)
	}
	// Iteration epilogue: advance stream index (with wrap), decrement.
	b.OpI(isa.Addi, rStream, rStream, 1)
	b.Op3(isa.And, rStream, rStream, rMask)
	b.OpI(isa.Addi, rOuter, rOuter, -1)
	b.Branch(isa.Bne, rOuter, 0, "outer")
	// Fold chain results into memory so the work is observable state.
	for c := 0; c < spec.Chains; c++ {
		b.Store(rChain0+isa.Reg(c), rScratch, int64(c))
	}
	b.Halt()
	// Function bodies live after the halt; only calls reach them.
	for _, fn := range funcs {
		b.Label(fn.name)
		w.emit(spec.BlockLen)
		if fn.depth == 2 {
			b.Call(rLink2, "leaf")
			w.emit(2)
		}
		b.Ret(rLink1)
	}
	if needLeaf {
		b.Label("leaf")
		w.emit(spec.BlockLen / 2)
		b.Ret(rLink2)
	}
	return b.Build()
}

// workEmitter emits straight-line work instructions cycling across the
// independent chains, with the spec's instruction mix.
type workEmitter struct {
	b     *Builder
	spec  Spec
	rng   *rand.Rand
	chain int
	slot  int64 // rotating scratch offset for loads/stores
	// lastStore remembers the most recent store's slot so that some loads
	// reload it shortly afterwards (a spill/reload pair), exercising the
	// store buffer's CTX-filtered forwarding path.
	lastStore int64
}

func (w *workEmitter) next() isa.Reg {
	r := rChain0 + isa.Reg(w.chain)
	w.chain = (w.chain + 1) % w.spec.Chains
	return r
}

func (w *workEmitter) other(not isa.Reg) isa.Reg {
	r := rChain0 + isa.Reg(w.rng.Intn(w.spec.Chains))
	if r == not {
		r = rChain0 + isa.Reg((int(not-rChain0)+1)%w.spec.Chains)
	}
	return r
}

// emitLight emits loop-body work: short-latency operations only (integer
// ALU and chain-resetting loads), as tight inner loops in real code rarely
// carry multiplies or FP down their critical path.
func (w *workEmitter) emitLight(n int) {
	for i := 0; i < n; i++ {
		r := w.next()
		switch w.rng.Intn(4) {
		case 0:
			w.slot = (w.slot + 7) % scratchWords
			w.b.Load(r, rScratch, w.slot)
		case 1:
			w.b.Op3(isa.Add, r, r, w.other(r))
		case 2:
			w.b.OpI(isa.Addi, r, r, int64(w.rng.Intn(64)+1))
		default:
			w.b.OpI(isa.Xori, r, r, int64(w.rng.Intn(255)+1))
		}
	}
}

func (w *workEmitter) emit(n int) {
	for i := 0; i < n; i++ {
		r := w.next()
		x := w.rng.Float64()
		sp := w.spec
		switch {
		case x < sp.LoadFrac:
			if w.lastStore >= 0 && w.rng.Intn(2) == 0 {
				w.b.Load(r, rScratch, w.lastStore) // reload a recent spill
				w.lastStore = -1
			} else {
				w.slot = (w.slot + 7) % scratchWords
				w.b.Load(r, rScratch, w.slot)
			}
		case x < sp.LoadFrac+sp.StoreFrac:
			w.slot = (w.slot + 13) % scratchWords
			w.b.Store(r, rScratch, w.slot)
			w.lastStore = w.slot
		case x < sp.LoadFrac+sp.StoreFrac+sp.MulFrac:
			w.b.Op3(isa.Mul, r, r, w.other(r))
		case x < sp.LoadFrac+sp.StoreFrac+sp.MulFrac+sp.FPFrac:
			op := isa.FAdd
			if w.rng.Intn(2) == 0 {
				op = isa.FMul
			}
			w.b.Op3(op, r, r, w.other(r))
		default:
			// Integer ALU: mostly chain-local to create real dependence
			// chains, occasionally cross-chain.
			switch w.rng.Intn(5) {
			case 0:
				w.b.Op3(isa.Add, r, r, w.other(r))
			case 1:
				w.b.Op3(isa.Xor, r, r, w.other(r))
			case 2:
				w.b.OpI(isa.Addi, r, r, int64(w.rng.Intn(64)+1))
			case 3:
				w.b.OpI(isa.Shri, r, r, 1)
			default:
				w.b.OpI(isa.Xori, r, r, int64(w.rng.Intn(255)+1))
			}
		}
	}
}
