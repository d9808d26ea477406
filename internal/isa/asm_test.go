package isa

import (
	"strings"
	"testing"
)

const asmFixture = `
; sum the first 8 data words, with a call and a switch-style indirect jump
.name  fixture
.data  1 2 3 4 5 6 7 8
.dataword fn

start:
    li    r1, 0          ; i
    li    r2, 8          ; n
    li    r3, 0          ; sum
loop:
    load  r4, 0(r1)
    add   r3, r3, r4
    addi  r1, r1, 1
    blt   r1, r2, loop
    call  r28, fn
    li    r5, 8          ; address of the .dataword cell
    load  r6, 0(r5)
    jri   (r6)           ; jumps to fn again
done:
    store r3, 16(r0)
    halt
fn:
    addi  r3, r3, 100
    beq   r3, r3, escape ; always taken
    nop
escape:
    bne   r28, r0, back  ; return only when linked (r28 != 0)
    jmp   done
back:
    li    r29, 0
    or    r29, r28, r0
    li    r28, 0
    ret   (r29)
`

func TestAssembleFixtureRuns(t *testing.T) {
	p, err := Assemble(asmFixture)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "fixture" {
		t.Errorf("name = %q", p.Name)
	}
	it := NewInterp(p)
	if err := it.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if !it.Halted {
		t.Fatal("fixture did not halt")
	}
	// sum 1..8 = 36; fn adds 100 twice (once via call, once via jri, the
	// second entering with r28==0 so it jumps straight to done).
	if got := it.Mem.Load(16); got != 236 {
		t.Errorf("mem[16] = %d, want 236", got)
	}
}

func TestAssembleDisasmRoundTrip(t *testing.T) {
	p, err := Assemble(asmFixture)
	if err != nil {
		t.Fatal(err)
	}
	// Reassemble the disassembly (labels flattened to @absolute targets)
	// and compare instruction streams.
	var b strings.Builder
	for _, in := range p.Code {
		b.WriteString(Disasm(in))
		b.WriteByte('\n')
	}
	p2, err := Assemble(b.String())
	if err != nil {
		t.Fatalf("reassembling disassembly: %v\n%s", err, b.String())
	}
	if len(p2.Code) != len(p.Code) {
		t.Fatalf("round trip length %d != %d", len(p2.Code), len(p.Code))
	}
	for i := range p.Code {
		if p.Code[i] != p2.Code[i] {
			t.Errorf("instruction %d: %+v != %+v", i, p.Code[i], p2.Code[i])
		}
	}
}

func TestAssembleLabelOnSameLine(t *testing.T) {
	p, err := Assemble("start: li r1, 5\n halt")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Code) != 2 || p.Code[0].Op != Li {
		t.Error("label-then-instruction on one line")
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"unknown mnemonic", "frobnicate r1, r2\nhalt"},
		{"bad register", "li rx, 5\nhalt"},
		{"register out of range", "li r32, 5\nhalt"},
		{"bad immediate", "li r1, five\nhalt"},
		{"undefined label", "jmp nowhere\nhalt"},
		{"undefined data label", ".dataword nowhere\nhalt"},
		{"duplicate label", "a:\na:\nhalt"},
		{"bad label", "9lives:\nhalt"},
		{"wrong operand count", "add r1, r2\nhalt"},
		{"bad memory operand", "load r1, r2\nhalt"},
		{"bad directive", ".bogus 1\nhalt"},
		{"bad data word", ".data x\nhalt"},
		{"branch to fallthrough", "beq r1, r2, next\nnext:\nnop\nhalt"},
		{"halt with operand", "halt r1\n"},
		{"no halt", "nop\n"},
	}
	for _, c := range cases {
		if _, err := Assemble(c.src); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestAssembleNumericBases(t *testing.T) {
	p, err := Assemble("li r1, 0x10\nli r2, -5\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0].Imm != 16 || p.Code[1].Imm != -5 {
		t.Errorf("immediates: %d, %d", p.Code[0].Imm, p.Code[1].Imm)
	}
}

func TestAssembleMemOperandForms(t *testing.T) {
	p, err := Assemble("load r1, (r2)\nstore r3, -4(r5)\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0].Imm != 0 || p.Code[0].Src1 != 2 {
		t.Error("bare (reg) memory operand")
	}
	if p.Code[1].Imm != -4 || p.Code[1].Src1 != 5 || p.Code[1].Src2 != 3 {
		t.Error("negative displacement store")
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustAssemble("bogus\n")
}
