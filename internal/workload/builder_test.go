package workload

import (
	"testing"

	"repro/internal/isa"
)

func TestBuilderLabelsAndBranches(t *testing.T) {
	b := NewBuilder("t")
	b.Li(1, 3)
	b.Label("top")
	b.OpI(isa.Addi, 1, 1, -1)
	b.Branch(isa.Bne, 1, 0, "top")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[2].Target != 1 {
		t.Errorf("branch target = %d, want 1", p.Code[2].Target)
	}
	it := isa.NewInterp(p)
	if err := it.Run(100); err != nil {
		t.Fatal(err)
	}
	if !it.Halted || it.Regs[1] != 0 {
		t.Errorf("loop result r1=%d halted=%v", it.Regs[1], it.Halted)
	}
}

func TestBuilderForwardReference(t *testing.T) {
	b := NewBuilder("fwd")
	b.Li(1, 1)
	b.Branch(isa.Bne, 1, 0, "end")
	b.Li(2, 99)
	b.Label("end")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	it := isa.NewInterp(p)
	if err := it.Run(100); err != nil {
		t.Fatal(err)
	}
	if it.Regs[2] != 0 {
		t.Error("forward branch should skip the li")
	}
}

func TestBuilderJump(t *testing.T) {
	b := NewBuilder("jmp")
	b.Jump("over")
	b.Li(1, 1)
	b.Label("over")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	it := isa.NewInterp(p)
	if err := it.Run(10); err != nil {
		t.Fatal(err)
	}
	if it.Regs[1] != 0 {
		t.Error("jump should skip the li")
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder("bad")
	b.Jump("nowhere")
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Error("expected undefined-label error")
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder("dup")
	b.Label("l")
	b.Label("l")
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Error("expected duplicate-label error")
	}
}

func TestBuilderBranchWithNonBranchOp(t *testing.T) {
	b := NewBuilder("nb")
	b.Branch(isa.Add, 1, 2, "x")
	b.Label("x")
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Error("expected non-branch-op error")
	}
}

func TestBuilderDataPlacementAndMemorySizing(t *testing.T) {
	b := NewBuilder("data")
	a1, w1 := b.Alloc(3)
	copy(w1, []int64{1, 2, 3})
	a2, w2 := b.Alloc(1)
	w2[0] = 4
	if a1 != 0 || a2 != 3 {
		t.Errorf("data addresses %d, %d", a1, a2)
	}
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.MemWords&(p.MemWords-1) != 0 || p.MemWords < len(p.DataInit)+1024 {
		t.Errorf("memory sizing: %d words for %d data", p.MemWords, len(p.DataInit))
	}
	it := isa.NewInterp(p)
	if it.Mem.Load(0) != 1 || it.Mem.Load(2) != 3 || it.Mem.Load(3) != 4 {
		t.Error("data not loaded into memory")
	}
}

func TestBuilderPackedRegionLiesBelowData(t *testing.T) {
	b := NewBuilder("packed")
	a0, p0 := b.AllocPacked(isa.PageWords)
	p0[1] = 0xf << isa.PackedBits // word 17
	a1, p1 := b.AllocPacked(isa.PageWords)
	p1[0] = 3 // word PageWords
	a2, w2 := b.Alloc(2)
	w2[1] = 7
	a3 := b.DataLabel("end")
	b.Label("end")
	b.Halt()
	if a0 != 0 || a1 != isa.PageWords || a2 != 2*isa.PageWords || a3 != 2*isa.PageWords+2 {
		t.Errorf("addresses %d, %d, %d, %d", a0, a1, a2, a3)
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.MemWords < 2*isa.PageWords+3+1024 {
		t.Errorf("memory sizing: %d words for %d packed and %d data", p.MemWords, p.PackedWords(), len(p.DataInit))
	}
	m := isa.NewMemory(p)
	for a, want := range map[int64]int64{16: 0, 17: 15, 18: 0, isa.PageWords: 3, a2 + 1: 7, a3: 0} {
		if got := m.Load(int(a)); got != want {
			t.Errorf("word %d = %d, want %d", a, got, want)
		}
	}
	late := NewBuilder("late")
	late.Alloc(1)
	late.AllocPacked(isa.PageWords)
	late.Halt()
	if _, err := late.Build(); err == nil {
		t.Error("AllocPacked after Alloc should fail: the packed region lies below the data")
	}
	ragged := NewBuilder("ragged")
	ragged.AllocPacked(isa.PackedPerWord)
	ragged.Halt()
	if _, err := ragged.Build(); err == nil {
		t.Error("AllocPacked of part of a page should fail")
	}
}

func TestBuilderPC(t *testing.T) {
	b := NewBuilder("pc")
	if b.PC() != 0 {
		t.Error("fresh builder PC")
	}
	b.Nop()
	if b.PC() != 1 {
		t.Error("PC after one instruction")
	}
}
