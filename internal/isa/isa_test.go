package isa

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpStringCoversAllOps(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		s := op.String()
		if s == "" || strings.Contains(s, "op(") {
			t.Errorf("op %d has no mnemonic", op)
		}
	}
}

func TestOpClassAndLatencyDefined(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		c := op.Class()
		if int(c) >= NumFUClasses {
			t.Errorf("op %v: invalid class %v", op, c)
		}
		if op.Latency() < 1 {
			t.Errorf("op %v: latency %d < 1", op, op.Latency())
		}
	}
}

func TestOpPredicatesConsistent(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		if op.IsCondBranch() && !op.IsControl() {
			t.Errorf("op %v: cond branch must be control", op)
		}
		if op.IsCondBranch() && op.HasDest() {
			t.Errorf("op %v: branches have no destination", op)
		}
		if op.IsMem() && op.Class() != ClassMem {
			t.Errorf("op %v: memory op must use mem class", op)
		}
	}
	if !Load.HasDest() || Store.HasDest() {
		t.Error("load writes a dest, store does not")
	}
	if !Store.ReadsSrc2() || !Store.ReadsSrc1() {
		t.Error("store reads base (src1) and data (src2)")
	}
	if Li.ReadsSrc1() {
		t.Error("li reads no sources")
	}
}

func TestEvalALUBasics(t *testing.T) {
	cases := []struct {
		op      Op
		a, b, i int64
		want    int64
	}{
		{Add, 3, 4, 0, 7},
		{Sub, 3, 4, 0, -1},
		{And, 0b1100, 0b1010, 0, 0b1000},
		{Or, 0b1100, 0b1010, 0, 0b1110},
		{Xor, 0b1100, 0b1010, 0, 0b0110},
		{Shl, 1, 4, 0, 16},
		{Shl, 1, 64, 0, 1}, // shift amounts mask to 6 bits
		{Shr, -8, 1, 0, int64(uint64(0xFFFFFFFFFFFFFFF8) >> 1)},
		{Slt, -1, 0, 0, 1},
		{Slt, 1, 0, 0, 0},
		{Mul, 7, -3, 0, -21},
		{Addi, 5, 0, 10, 15},
		{Andi, 0xFF, 0, 0x0F, 0x0F},
		{Ori, 0x10, 0, 0x01, 0x11},
		{Xori, 0xFF, 0, 0xF0, 0x0F},
		{Slti, 3, 0, 4, 1},
		{Slti, 4, 0, 4, 0},
		{Shli, 3, 0, 2, 12},
		{Shri, 12, 0, 2, 3},
		{Li, 99, 99, -7, -7},
	}
	for _, c := range cases {
		if got := EvalALU(c.op, c.a, c.b, c.i); got != c.want {
			t.Errorf("EvalALU(%v, %d, %d, %d) = %d, want %d", c.op, c.a, c.b, c.i, got, c.want)
		}
	}
}

func TestEvalALUFloat(t *testing.T) {
	bits := func(f float64) int64 { return int64(math.Float64bits(f)) }
	if got := EvalALU(FAdd, bits(1.5), bits(2.25), 0); got != bits(3.75) {
		t.Errorf("fadd: got %x want %x", got, bits(3.75))
	}
	if got := EvalALU(FMul, bits(1.5), bits(4), 0); got != bits(6) {
		t.Errorf("fmul: got %x want %x", got, bits(6))
	}
}

func TestEvalBranch(t *testing.T) {
	cases := []struct {
		op   Op
		a, b int64
		want bool
	}{
		{Beq, 4, 4, true}, {Beq, 4, 5, false},
		{Bne, 4, 4, false}, {Bne, 4, 5, true},
		{Blt, -1, 0, true}, {Blt, 0, 0, false},
		{Bge, 0, 0, true}, {Bge, -1, 0, false},
	}
	for _, c := range cases {
		if got := EvalBranch(c.op, c.a, c.b); got != c.want {
			t.Errorf("EvalBranch(%v, %d, %d) = %v, want %v", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestEffAddrMasksToMemSize(t *testing.T) {
	if got := EffAddr(10, 6, 16); got != 0 {
		t.Errorf("EffAddr(10,6,16) = %d, want 0", got)
	}
	if got := EffAddr(-1, 0, 16); got != 15 {
		t.Errorf("EffAddr(-1,0,16) = %d, want 15", got)
	}
	f := func(base, imm int64) bool {
		a := EffAddr(base, imm, 1024)
		return a >= 0 && a < 1024
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// property: Slt and Blt agree; Sub sign and Blt agree for non-overflowing inputs.
func TestSltBltAgree(t *testing.T) {
	f := func(a, b int64) bool {
		return (EvalALU(Slt, a, b, 0) == 1) == EvalBranch(Blt, a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func testProgram() *Program {
	// Computes sum of data[0..7] into r3, stores it to mem[8], then counts
	// down a loop that doubles r5 three times.
	return &Program{
		Name:     "t",
		MemWords: 16,
		DataInit: []int64{1, 2, 3, 4, 5, 6, 7, 8},
		Code: []Inst{
			0:  {Op: Li, Dst: 1, Imm: 0},            // i = 0
			1:  {Op: Li, Dst: 3, Imm: 0},            // sum = 0
			2:  {Op: Li, Dst: 4, Imm: 8},            // n = 8
			3:  {Op: Load, Dst: 2, Src1: 1, Imm: 0}, // v = mem[i]
			4:  {Op: Add, Dst: 3, Src1: 3, Src2: 2}, // sum += v
			5:  {Op: Addi, Dst: 1, Src1: 1, Imm: 1}, // i++
			6:  {Op: Blt, Src1: 1, Src2: 4, Target: 3},
			7:  {Op: Store, Src1: 0, Src2: 3, Imm: 8}, // mem[8] = sum
			8:  {Op: Li, Dst: 5, Imm: 1},
			9:  {Op: Li, Dst: 6, Imm: 3},
			10: {Op: Shli, Dst: 5, Src1: 5, Imm: 1},
			11: {Op: Addi, Dst: 6, Src1: 6, Imm: -1},
			12: {Op: Bne, Src1: 6, Src2: 0, Target: 10},
			13: {Op: Halt},
		},
	}
}

func TestValidateAcceptsGoodProgram(t *testing.T) {
	if err := testProgram().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Program)
	}{
		{"non-power-of-two memory", func(p *Program) { p.MemWords = 12 }},
		{"data exceeds memory", func(p *Program) { p.MemWords = 4 }},
		{"empty code", func(p *Program) { p.Code = nil }},
		{"target out of range", func(p *Program) { p.Code[6].Target = 100 }},
		{"branch to fall-through", func(p *Program) { p.Code[6].Target = 7 }},
		{"no halt", func(p *Program) { p.Code[13].Op = Nop }},
		{"bad opcode", func(p *Program) { p.Code[0].Op = numOps }},
		{"bad register", func(p *Program) { p.Code[0].Dst = NumRegs }},
	}
	for _, tc := range tests {
		p := testProgram()
		tc.mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid program", tc.name)
		}
	}
}

func TestInterpRunsProgram(t *testing.T) {
	p := testProgram()
	it := NewInterp(p)
	if err := it.Run(1 << 20); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !it.Halted {
		t.Fatal("program did not halt")
	}
	if it.Regs[3] != 36 {
		t.Errorf("sum r3 = %d, want 36", it.Regs[3])
	}
	if got := it.Mem.Load(8); got != 36 {
		t.Errorf("mem[8] = %d, want 36", got)
	}
	if it.Regs[5] != 8 {
		t.Errorf("r5 = %d, want 8", it.Regs[5])
	}
}

func TestInterpR0IsZero(t *testing.T) {
	p := &Program{
		Name: "r0", MemWords: 2,
		Code: []Inst{
			{Op: Li, Dst: 0, Imm: 42},
			{Op: Add, Dst: 1, Src1: 0, Src2: 0},
			{Op: Halt},
		},
	}
	it := NewInterp(p)
	if err := it.Run(100); err != nil {
		t.Fatal(err)
	}
	if it.Regs[0] != 0 || it.Regs[1] != 0 {
		t.Errorf("r0 = %d, r1 = %d, want 0, 0", it.Regs[0], it.Regs[1])
	}
}

func TestInterpStepAfterHaltErrors(t *testing.T) {
	p := &Program{Name: "h", MemWords: 2, Code: []Inst{{Op: Halt}}}
	it := NewInterp(p)
	if err := it.Step(); err != nil {
		t.Fatal(err)
	}
	if err := it.Step(); err == nil {
		t.Error("expected error stepping after halt")
	}
}

func TestInterpMaxInstsStopsWithoutHalt(t *testing.T) {
	p := &Program{
		Name: "loop", MemWords: 2,
		Code: []Inst{
			{Op: Jmp, Target: 0},
			{Op: Halt}, // unreachable, satisfies Validate
		},
	}
	it := NewInterp(p)
	if err := it.Run(1000); err != nil {
		t.Fatal(err)
	}
	if it.Halted {
		t.Error("infinite loop should not halt")
	}
	if it.InstCount != 1000 {
		t.Errorf("InstCount = %d, want 1000", it.InstCount)
	}
}

func TestTraceRecordsBranchOutcomes(t *testing.T) {
	p := testProgram()
	recs, final, err := Trace(p, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Halted {
		t.Fatal("trace did not reach halt")
	}
	// The first loop's branch (pc 6) executes 8 times: taken 7, not-taken 1.
	// The second loop's branch (pc 12) executes 3 times: taken 2, not-taken 1.
	var b6taken, b6total, b12taken, b12total int
	for _, r := range recs {
		switch r.PC {
		case 6:
			b6total++
			if r.Taken {
				b6taken++
			}
		case 12:
			b12total++
			if r.Taken {
				b12taken++
			}
		default:
			t.Errorf("unexpected branch pc %d", r.PC)
		}
	}
	if b6total != 8 || b6taken != 7 {
		t.Errorf("branch@6: %d/%d taken, want 7/8", b6taken, b6total)
	}
	if b12total != 3 || b12taken != 2 {
		t.Errorf("branch@12: %d/%d taken, want 2/3", b12taken, b12total)
	}
	// Records must be in program order per PC pass: final record not taken.
	if recs[len(recs)-1].Taken {
		t.Error("last branch record should be the loop exit (not taken)")
	}
}

func TestDisasmAllForms(t *testing.T) {
	p := testProgram()
	out := DisasmProgram(p)
	for _, want := range []string{"li", "load", "store", "add", "blt", "bne", "halt", "@3"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
	if got := Disasm(Inst{Op: Jmp, Target: 5}); got != "jmp   @5" {
		t.Errorf("jmp disasm = %q", got)
	}
	if got := Disasm(Inst{Op: Nop}); got != "nop" {
		t.Errorf("nop disasm = %q", got)
	}
}

func TestProfileProgram(t *testing.T) {
	p := testProgram()
	prof, err := ProfileProgram(p, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// The test program executes 8 loads (one per loop iteration).
	if prof.ByOp[Load] != 8 {
		t.Errorf("loads = %d, want 8", prof.ByOp[Load])
	}
	if prof.Branches != 11 { // 8 blt + 3 bne
		t.Errorf("branches = %d, want 11", prof.Branches)
	}
	if prof.Taken != 9 { // 7 + 2
		t.Errorf("taken = %d, want 9", prof.Taken)
	}
	if prof.Total == 0 || prof.Frac(Load) <= 0 {
		t.Error("profile totals")
	}
	out := prof.String()
	for _, want := range []string{"dynamic instructions", "cond branches", "load"} {
		if !strings.Contains(out, want) {
			t.Errorf("profile string missing %q", want)
		}
	}
	if prof.ByClass[ClassMem] != prof.ByOp[Load]+prof.ByOp[Store] {
		t.Error("class accounting")
	}
}

func TestInterpIndirectJump(t *testing.T) {
	p := &Program{
		Name: "jri", MemWords: 2,
		Code: []Inst{
			{Op: Li, Dst: 1, Imm: 3},
			{Op: Jri, Src1: 1}, // jump to pc 3
			{Op: Li, Dst: 2, Imm: 99},
			{Op: Halt},
		},
	}
	it := NewInterp(p)
	if err := it.Run(100); err != nil {
		t.Fatal(err)
	}
	if it.Regs[2] != 0 {
		t.Error("indirect jump should skip the li")
	}
	// Out-of-range values wrap modulo code length.
	if got := IndirectTarget(-1, 4); got != 3 {
		t.Errorf("IndirectTarget(-1,4) = %d, want 3", got)
	}
	if got := IndirectTarget(9, 4); got != 1 {
		t.Errorf("IndirectTarget(9,4) = %d, want 1", got)
	}
}

func TestInterpCallRet(t *testing.T) {
	p := &Program{
		Name: "call", MemWords: 2,
		Code: []Inst{
			0: {Op: Call, Dst: 1, Target: 3}, // r1 = 1, pc = 3
			1: {Op: Li, Dst: 3, Imm: 7},      // after return
			2: {Op: Halt},
			3: {Op: Li, Dst: 2, Imm: 5}, // function body
			4: {Op: Ret, Src1: 1},       // return to r1 = 1
		},
	}
	it := NewInterp(p)
	if err := it.Run(100); err != nil {
		t.Fatal(err)
	}
	if !it.Halted || it.Regs[1] != 1 || it.Regs[2] != 5 || it.Regs[3] != 7 {
		t.Errorf("call/ret state: halted=%v r1=%d r2=%d r3=%d", it.Halted, it.Regs[1], it.Regs[2], it.Regs[3])
	}
}

func TestTraceRecordsIndirectTargets(t *testing.T) {
	p := &Program{
		Name: "tr", MemWords: 2,
		Code: []Inst{
			{Op: Li, Dst: 1, Imm: 2},
			{Op: Jri, Src1: 1},
			{Op: Halt},
		},
	}
	recs, _, err := Trace(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !recs[0].Indirect || recs[0].Target != 2 || recs[0].PC != 1 {
		t.Errorf("indirect trace record: %+v", recs)
	}
}
