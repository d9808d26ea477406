// Package workload generates the synthetic SPECint95-like programs used to
// evaluate the PolyPath architecture. Real SPECint95 Alpha binaries are not
// available to this reproduction, so each benchmark is replaced by an
// execution-driven synthetic program whose control-flow behaviour —
// branch misprediction rate under the baseline gshare predictor and the
// clustering structure of mispredictions that determines JRS confidence
// PVN — is calibrated to the paper's Table 1. See DESIGN.md for the full
// substitution argument.
package workload

import (
	"fmt"
	"slices"

	"repro/internal/isa"
)

// Builder assembles a Program with symbolic labels, so generators can emit
// structured control flow without tracking instruction indices by hand.
type Builder struct {
	name       string
	code       []isa.Inst
	labels     map[string]int
	fixups     []fixup
	dataFixups []dataFixup
	packed     []uint64 // the packed region: the lowest data words (AllocPacked)
	data       []int64  // the data words above the packed region
	errs       []error
}

type fixup struct {
	pc    int
	label string
}

type dataFixup struct {
	idx   int
	label string
}

// NewBuilder creates an empty program builder.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, labels: make(map[string]int)}
}

// Label defines a label at the current position. Defining a label twice is
// an error reported by Build.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("workload: duplicate label %q", name))
		return
	}
	b.labels[name] = len(b.code)
}

// Emit appends a raw instruction.
func (b *Builder) Emit(in isa.Inst) { b.code = append(b.code, in) }

// Op3 emits a three-register ALU operation.
func (b *Builder) Op3(op isa.Op, dst, s1, s2 isa.Reg) {
	b.Emit(isa.Inst{Op: op, Dst: dst, Src1: s1, Src2: s2})
}

// OpI emits a register-immediate ALU operation.
func (b *Builder) OpI(op isa.Op, dst, s1 isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: op, Dst: dst, Src1: s1, Imm: imm})
}

// Li emits a load-immediate.
func (b *Builder) Li(dst isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.Li, Dst: dst, Imm: imm})
}

// Load emits dst = mem[base+imm].
func (b *Builder) Load(dst, base isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.Load, Dst: dst, Src1: base, Imm: imm})
}

// Store emits mem[base+imm] = src.
func (b *Builder) Store(src, base isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.Store, Src1: base, Src2: src, Imm: imm})
}

// Branch emits a conditional branch to a label (resolved at Build time).
func (b *Builder) Branch(op isa.Op, s1, s2 isa.Reg, label string) {
	if !op.IsCondBranch() {
		b.errs = append(b.errs, fmt.Errorf("workload: Branch with non-branch op %v", op))
		return
	}
	b.fixups = append(b.fixups, fixup{pc: len(b.code), label: label})
	b.Emit(isa.Inst{Op: op, Src1: s1, Src2: s2})
}

// Jump emits an unconditional jump to a label.
func (b *Builder) Jump(label string) {
	b.fixups = append(b.fixups, fixup{pc: len(b.code), label: label})
	b.Emit(isa.Inst{Op: isa.Jmp})
}

// Call emits a direct call to a label, writing the return address into
// link.
func (b *Builder) Call(link isa.Reg, label string) {
	b.fixups = append(b.fixups, fixup{pc: len(b.code), label: label})
	b.Emit(isa.Inst{Op: isa.Call, Dst: link})
}

// Ret emits a function return through link.
func (b *Builder) Ret(link isa.Reg) {
	b.Emit(isa.Inst{Op: isa.Ret, Src1: link})
}

// Halt emits the terminator.
func (b *Builder) Halt() { b.Emit(isa.Inst{Op: isa.Halt}) }

// Nop emits a no-op.
func (b *Builder) Nop() { b.Emit(isa.Inst{Op: isa.Nop}) }

// AllocPacked appends n zero words to the packed region
// (isa.Program.Packed), which lies below every other data word, and
// returns the word address of the first one together with the elements
// that hold them, which the caller fills in place: word w of the
// allocation is bits isa.PackedBits*(w%isa.PackedPerWord) up of element
// w/isa.PackedPerWord. n must be a whole number of pages, and no Alloc
// or DataLabel may come before it. The slice aliases the region only
// until the next AllocPacked.
func (b *Builder) AllocPacked(n int) (int64, []uint64) {
	if len(b.data) > 0 || n%isa.PageWords != 0 {
		b.errs = append(b.errs, fmt.Errorf("workload: AllocPacked(%d): packed words come in whole pages, before any other data", n))
	}
	at, m := len(b.packed), (n+isa.PackedPerWord-1)/isa.PackedPerWord
	b.packed = slices.Grow(b.packed, m)[:at+m]
	return int64(at * isa.PackedPerWord), b.packed[at:]
}

// dataBase is the word address of the first data word above the packed
// region.
func (b *Builder) dataBase() int { return len(b.packed) * isa.PackedPerWord }

// Alloc appends n zero words to the data segment and returns the word
// address of the first one together with the words themselves, which the
// caller fills in place. The slice aliases the segment only until the
// next Alloc or DataLabel, either of which may move it. Within capacity
// nothing is allocated, and the words are zero because the segment only
// grows: no word past its length has been written.
func (b *Builder) Alloc(n int) (int64, []int64) {
	at := len(b.data)
	b.data = slices.Grow(b.data, n)[:at+n]
	return int64(b.dataBase() + at), b.data[at:]
}

// DataLabel appends a data word that will hold the instruction address of
// label once Build resolves it — the building block for switch jump
// tables. It returns the word's address.
func (b *Builder) DataLabel(label string) int64 {
	addr := int64(b.dataBase() + len(b.data))
	b.dataFixups = append(b.dataFixups, dataFixup{idx: len(b.data), label: label})
	b.data = append(b.data, 0)
	return addr
}

// PC returns the index the next emitted instruction will have.
func (b *Builder) PC() int { return len(b.code) }

// Build resolves labels, sizes memory to the next power of two above the
// data segment (with headroom for scratch space), validates, and returns
// the program.
func (b *Builder) Build() (*isa.Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("workload: undefined label %q", f.label)
		}
		b.code[f.pc].Target = int32(target)
	}
	for _, f := range b.dataFixups {
		target, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("workload: undefined data label %q", f.label)
		}
		b.data[f.idx] = int64(target)
	}
	memWords := 1
	for memWords < b.dataBase()+len(b.data)+1024 {
		memWords <<= 1
	}
	p := &isa.Program{
		Name:     b.name,
		Code:     b.code,
		Packed:   b.packed,
		DataInit: b.data,
		MemWords: memWords,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
