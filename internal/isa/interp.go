package isa

import (
	"fmt"
	"math"
)

// EvalALU computes the result of a non-memory, non-control operation given
// its two source operand values and immediate. The pipeline's execution
// units call this as well, so functional and timing simulation can never
// disagree about data semantics.
func EvalALU(op Op, a, b, imm int64) int64 {
	switch op {
	case Add:
		return a + b
	case Sub:
		return a - b
	case And:
		return a & b
	case Or:
		return a | b
	case Xor:
		return a ^ b
	case Shl:
		return a << (uint64(b) & 63)
	case Shr:
		return int64(uint64(a) >> (uint64(b) & 63))
	case Slt:
		if a < b {
			return 1
		}
		return 0
	case Mul:
		return a * b
	case Addi:
		return a + imm
	case Andi:
		return a & imm
	case Ori:
		return a | imm
	case Xori:
		return a ^ imm
	case Slti:
		if a < imm {
			return 1
		}
		return 0
	case Shli:
		return a << (uint64(imm) & 63)
	case Shri:
		return int64(uint64(a) >> (uint64(imm) & 63))
	case Li:
		return imm
	case FAdd:
		return int64(math.Float64bits(math.Float64frombits(uint64(a)) + math.Float64frombits(uint64(b))))
	case FMul:
		return int64(math.Float64bits(math.Float64frombits(uint64(a)) * math.Float64frombits(uint64(b))))
	default:
		return 0
	}
}

// EvalBranch computes the outcome of a conditional branch given its two
// source operand values.
func EvalBranch(op Op, a, b int64) bool {
	switch op {
	case Beq:
		return a == b
	case Bne:
		return a != b
	case Blt:
		return a < b
	case Bge:
		return a >= b
	default:
		return false
	}
}

// IndirectTarget maps a register value onto a valid instruction index for
// an indirect jump. The modulo keeps wrong-path garbage values in range,
// the same safety property EffAddr provides for memory.
func IndirectTarget(v int64, codeLen int) int {
	t := int(v % int64(codeLen))
	if t < 0 {
		t += codeLen
	}
	return t
}

// EffAddr computes the effective word address of a memory operation given
// the base register value, immediate, and memory size (a power of two).
func EffAddr(base, imm int64, memWords int) int {
	return int(uint64(base+imm) & uint64(memWords-1))
}

// Interp is a functional (architectural) interpreter for a Program. It is
// the oracle against which the pipeline simulator's committed state is
// checked, and the producer of the dynamic branch trace used by the oracle
// branch predictor and oracle confidence estimator.
type Interp struct {
	Prog      *Program
	Regs      [NumRegs]int64
	Mem       *Memory
	PC        int
	Halted    bool
	InstCount uint64 // dynamic instructions executed (including Halt)
}

// NewInterp creates an interpreter with reset architectural state: zeroed
// registers, memory initialized from the program's DataInit, PC at 0.
func NewInterp(p *Program) *Interp {
	return &Interp{Prog: p, Mem: NewMemory(p)}
}

// Step executes a single instruction. It returns an error if the machine
// has already halted or the PC is out of range (which Validate-passing
// programs cannot reach).
func (it *Interp) Step() error {
	if it.Halted {
		return fmt.Errorf("isa: step after halt (pc=%d)", it.PC)
	}
	if it.PC < 0 || it.PC >= len(it.Prog.Code) {
		return fmt.Errorf("isa: pc %d out of range", it.PC)
	}
	in := it.Prog.Code[it.PC]
	it.InstCount++
	next := it.PC + 1
	switch {
	case in.Op == Halt:
		it.Halted = true
	case in.Op == Nop:
		// nothing
	case in.Op == Load:
		ea := EffAddr(it.Regs[in.Src1], in.Imm, it.Prog.MemWords)
		it.writeReg(in.Dst, it.Mem.Load(ea))
	case in.Op == Store:
		ea := EffAddr(it.Regs[in.Src1], in.Imm, it.Prog.MemWords)
		it.Mem.Store(ea, it.Regs[in.Src2])
	case in.Op.IsCondBranch():
		if EvalBranch(in.Op, it.Regs[in.Src1], it.Regs[in.Src2]) {
			next = int(in.Target)
		}
	case in.Op == Jmp:
		next = int(in.Target)
	case in.Op == Jri || in.Op == Ret:
		next = IndirectTarget(it.Regs[in.Src1], len(it.Prog.Code))
	case in.Op == Call:
		it.writeReg(in.Dst, int64(it.PC+1))
		next = int(in.Target)
	default:
		it.writeReg(in.Dst, EvalALU(in.Op, it.Regs[in.Src1], it.Regs[in.Src2], in.Imm))
	}
	it.PC = next
	return nil
}

func (it *Interp) writeReg(r Reg, v int64) {
	if r != 0 {
		it.Regs[r] = v
	}
}

// Run executes until Halt or until maxInsts instructions have executed.
// It returns an error on malformed execution; hitting maxInsts is not an
// error (check Halted to distinguish).
func (it *Interp) Run(maxInsts uint64) error {
	for !it.Halted && it.InstCount < maxInsts {
		if err := it.Step(); err != nil {
			return err
		}
	}
	return nil
}

// BranchRecord is one dynamic control-flow decision on the correct
// architectural path: a conditional branch outcome, or (Indirect set) an
// indirect jump's resolved target.
type BranchRecord struct {
	PC       int32
	Taken    bool
	Indirect bool
	Target   int32 // resolved target for indirect jumps
}

// Trace functionally executes p (up to maxInsts dynamic instructions) and
// returns the in-order record of every conditional branch outcome and
// indirect jump target, along with the final interpreter state. This is
// the substrate for the paper's "oracle" branch predictor and "oracle"
// (perfect) confidence estimator.
func Trace(p *Program, maxInsts uint64) ([]BranchRecord, *Interp, error) {
	var recs []BranchRecord
	it, err := TraceStream(p, maxInsts, func(r BranchRecord) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return recs, it, nil
}

// TraceStream is Trace without the in-memory record slice: fn is called for
// each control-flow decision in program order. A non-nil error from fn
// stops execution and is returned verbatim. This is the substrate for
// exporting arbitrarily long branch traces (btrace) in constant memory.
func TraceStream(p *Program, maxInsts uint64, fn func(BranchRecord) error) (*Interp, error) {
	it := NewInterp(p)
	for !it.Halted && it.InstCount < maxInsts {
		pc := it.PC
		op := p.Code[pc].Op
		if err := it.Step(); err != nil {
			return nil, err
		}
		var rec BranchRecord
		switch {
		case op.IsCondBranch():
			rec = BranchRecord{PC: int32(pc), Taken: it.PC == int(p.Code[pc].Target)}
		case op == Jri || op == Ret:
			rec = BranchRecord{PC: int32(pc), Indirect: true, Target: int32(it.PC)}
		default:
			continue
		}
		if err := fn(rec); err != nil {
			return nil, err
		}
	}
	return it, nil
}
