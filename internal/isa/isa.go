// Package isa defines the small RISC-like instruction set executed by the
// PolyPath simulator, together with a functional interpreter that serves as
// the architectural oracle for execution-driven simulation.
//
// The ISA is deliberately minimal but complete enough to express the
// synthetic SPECint95-like workloads used in the paper's evaluation:
// integer ALU operations (split into the two Alpha-21164-style integer
// classes), integer multiply, floating point add/multiply, loads, stores,
// conditional branches, direct jumps, and Halt.
//
// Programs use 32 integer registers; register 0 is hard-wired to zero.
// Memory is word addressed (64-bit words) and all effective addresses are
// masked to the program's memory size, so wrong-path execution with garbage
// register values can never fault — exactly the property an execution-driven
// micro-architecture simulator needs.
package isa

import "fmt"

// NumRegs is the number of logical integer registers. Register 0 reads as
// zero and writes to it are discarded.
const NumRegs = 32

// Reg names a logical register.
type Reg uint8

// Op is an operation code.
type Op uint8

// Operation codes.
const (
	Nop Op = iota
	Halt

	// Integer ALU, register-register.
	Add
	Sub
	And
	Or
	Xor
	Shl // shift left by (src2 & 63)
	Shr // logical shift right by (src2 & 63)
	Slt // set if less than (signed)
	Mul // integer multiply (long latency)

	// Integer ALU, register-immediate.
	Addi
	Andi
	Ori
	Xori
	Slti
	Shli
	Shri
	Li // load immediate: dst = imm

	// Memory. Effective address = (reg[src1] + imm) & (memWords-1).
	Load  // dst = mem[ea]
	Store // mem[ea] = reg[src2]

	// Conditional branches: if cond(reg[src1], reg[src2]) jump to Target.
	Beq
	Bne
	Blt // signed less-than
	Bge // signed greater-or-equal

	// Direct control transfer.
	Jmp // unconditional jump to Target
	// Indirect control transfer: PC = reg[src1] mod len(code). Real code
	// uses this for switch tables and function-pointer dispatch; targets
	// are predicted with a BTB in the pipeline.
	Jri
	// Call: reg[dst] = pc+1 (the link), PC = Target. Direct call; the
	// pipeline pushes the return address onto the return-address stack.
	Call
	// Ret: PC = reg[src1] mod len(code). Same semantics as Jri, but the
	// pipeline predicts the target with the return-address stack.
	Ret

	// Floating point (operates on the raw register bits as float64).
	FAdd
	FMul

	numOps // sentinel
)

// Inst is a single decoded instruction. Programs are slices of Inst and the
// program counter is simply an index into that slice. Branch and jump
// targets are absolute instruction indices.
type Inst struct {
	Op     Op
	Dst    Reg
	Src1   Reg
	Src2   Reg
	Imm    int64
	Target int32
}

// Program is a complete executable: code, the initial contents of data
// memory, and the memory size in 64-bit words (must be a power of two).
// Memory at reset holds the packed region, then DataInit, then zeros.
//
// A Program is immutable once built: nothing in it changes after
// construction. The reference-run cache keys on the pointer, and every
// Memory of the program reads Packed and DataInit's full pages in place,
// so a write to either would change every machine simulating the
// program.
type Program struct {
	Name string
	Code []Inst
	// Packed holds the lowest PackedWords() words of memory at reset,
	// PackedBits each: word a is bits PackedBits*(a%PackedPerWord) up of
	// Packed[a/PackedPerWord]. It covers whole pages, read in place; a
	// memory decodes a page only when a store copies it.
	Packed   []uint64
	DataInit []int64 // the words after the packed region at reset
	MemWords int     // power of two; total memory size in words
}

// The packed region stores PackedBits per word, PackedPerWord words to
// an element of Program.Packed: enough for the generator's branch
// streams, whose words are 0 or 1, or a switch case below 16.
const (
	PackedBits    = 4
	PackedPerWord = 64 / PackedBits
)

// PackedWords returns the size of p's packed region in words.
func (p *Program) PackedWords() int { return len(p.Packed) * PackedPerWord }

// PackedWord returns word a of p's packed region, a < PackedWords().
func (p *Program) PackedWord(a int) int64 {
	return int64(p.Packed[a/PackedPerWord] >> (a % PackedPerWord * PackedBits) & (1<<PackedBits - 1))
}

// Validate checks structural invariants of the program: a power-of-two
// memory that covers the packed region, of whole pages, and DataInit;
// in-range branch targets, in-range register numbers, and termination via
// at least one Halt.
func (p *Program) Validate() error {
	if p.MemWords <= 0 || p.MemWords&(p.MemWords-1) != 0 {
		return fmt.Errorf("isa: program %q: MemWords %d is not a positive power of two", p.Name, p.MemWords)
	}
	if len(p.Packed)%packedPerPage != 0 {
		return fmt.Errorf("isa: program %q: packed region (%d words) is not a whole number of %d-word pages", p.Name, p.PackedWords(), PageWords)
	}
	if p.PackedWords()+len(p.DataInit) > p.MemWords {
		return fmt.Errorf("isa: program %q: packed region (%d words) and DataInit (%d words) exceed MemWords (%d)", p.Name, p.PackedWords(), len(p.DataInit), p.MemWords)
	}
	if len(p.Code) == 0 {
		return fmt.Errorf("isa: program %q: empty code", p.Name)
	}
	haltSeen := false
	for pc, in := range p.Code {
		if in.Op >= numOps {
			return fmt.Errorf("isa: program %q: pc %d: invalid opcode %d", p.Name, pc, in.Op)
		}
		if in.Dst >= NumRegs || in.Src1 >= NumRegs || in.Src2 >= NumRegs {
			return fmt.Errorf("isa: program %q: pc %d: register out of range", p.Name, pc)
		}
		if in.Op.IsControl() && !in.Op.IsIndirect() {
			if int(in.Target) < 0 || int(in.Target) >= len(p.Code) {
				return fmt.Errorf("isa: program %q: pc %d: target %d out of range", p.Name, pc, in.Target)
			}
			// A conditional branch whose target is its own fall-through
			// would make "taken" unobservable; forbid it.
			if in.Op.IsCondBranch() && int(in.Target) == pc+1 {
				return fmt.Errorf("isa: program %q: pc %d: conditional branch targets its fall-through", p.Name, pc)
			}
		}
		if in.Op == Halt {
			haltSeen = true
		}
	}
	if !haltSeen {
		return fmt.Errorf("isa: program %q: no Halt instruction", p.Name)
	}
	return nil
}

// IsCondBranch reports whether op is a conditional branch.
func (op Op) IsCondBranch() bool {
	switch op {
	case Beq, Bne, Blt, Bge:
		return true
	}
	return false
}

// IsControl reports whether op changes control flow (conditional branch,
// direct jump, or indirect jump).
func (op Op) IsControl() bool {
	return op.IsCondBranch() || op == Jmp || op == Jri || op == Call || op == Ret
}

// IsIndirect reports whether op's target comes from a register (indirect
// jump or function return).
func (op Op) IsIndirect() bool { return op == Jri || op == Ret }

// IsMem reports whether op accesses data memory.
func (op Op) IsMem() bool { return op == Load || op == Store }

// HasDest reports whether op writes a destination register.
func (op Op) HasDest() bool {
	switch op {
	case Nop, Halt, Store, Beq, Bne, Blt, Bge, Jmp, Jri, Ret:
		return false
	}
	return true
}

// ReadsSrc1 reports whether op reads Src1.
func (op Op) ReadsSrc1() bool {
	switch op {
	case Nop, Halt, Jmp, Li, Call:
		return false
	}
	return true
}

// ReadsSrc2 reports whether op reads Src2.
func (op Op) ReadsSrc2() bool {
	switch op {
	case Add, Sub, And, Or, Xor, Shl, Shr, Slt, Mul,
		Store, Beq, Bne, Blt, Bge, FAdd, FMul:
		return true
	}
	return false
}

var opNames = [numOps]string{
	Nop: "nop", Halt: "halt",
	Add: "add", Sub: "sub", And: "and", Or: "or", Xor: "xor",
	Shl: "shl", Shr: "shr", Slt: "slt", Mul: "mul",
	Addi: "addi", Andi: "andi", Ori: "ori", Xori: "xori",
	Slti: "slti", Shli: "shli", Shri: "shri", Li: "li",
	Load: "load", Store: "store",
	Beq: "beq", Bne: "bne", Blt: "blt", Bge: "bge",
	Jmp: "jmp", Jri: "jri", Call: "call", Ret: "ret", FAdd: "fadd", FMul: "fmul",
}

// String returns the mnemonic for op.
func (op Op) String() string {
	if op < numOps {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}
