package asm

import (
	"slices"
	"strings"
	"testing"

	"dcg/internal/isa"
)

func TestAssembleBasics(t *testing.T) {
	prog, err := Assemble(`
; a trivial program
    addi r1, r0, 10
    add  r2, r1, r1
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Insts) != 3 {
		t.Fatalf("got %d instructions", len(prog.Insts))
	}
	if prog.Base != DefaultBase {
		t.Errorf("base = %#x", prog.Base)
	}
	in := prog.Insts[0]
	if in.Op != isa.OpAddI || in.Dst != isa.IntReg(1) || in.Imm != 10 {
		t.Errorf("addi parsed as %+v", in)
	}
}

func TestLabelsResolveBothDirections(t *testing.T) {
	prog, err := Assemble(`
start:
    beq r1, r0, end
    jmp start
end:
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.Insts[0].Imm; got != int64(prog.PCOf(2)) {
		t.Errorf("forward label = %#x, want %#x", got, prog.PCOf(2))
	}
	if got := prog.Insts[1].Imm; got != int64(prog.PCOf(0)) {
		t.Errorf("backward label = %#x, want %#x", got, prog.PCOf(0))
	}
	if prog.Labels["start"] != prog.PCOf(0) || prog.Labels["end"] != prog.PCOf(2) {
		t.Error("label table wrong")
	}
}

func TestOrgDirective(t *testing.T) {
	prog, err := Assemble(`
.org 0x10000
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Base != 0x10000 {
		t.Errorf("base = %#x", prog.Base)
	}
	if _, err := Assemble("halt\n.org 0x1000\nhalt"); err == nil {
		t.Error(".org after code accepted")
	}
	if _, err := Assemble(".org 3\nhalt"); err == nil {
		t.Error("unaligned .org accepted")
	}
}

func TestMemoryAndFPSyntax(t *testing.T) {
	prog, err := Assemble(`
    ld  r1, r2, 16
    st  r1, r2, 24
    ldf f1, r2, 0
    stf f1, r2, 8
    fadd f3, f1, f2
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	ld := prog.Insts[0]
	if ld.Op != isa.OpLd || ld.Dst != isa.IntReg(1) || ld.Src1 != isa.IntReg(2) || ld.Imm != 16 {
		t.Errorf("ld parsed as %+v", ld)
	}
	st := prog.Insts[1]
	if st.Op != isa.OpSt || st.Src1 != isa.IntReg(1) || st.Src2 != isa.IntReg(2) || st.Imm != 24 {
		t.Errorf("st parsed as %+v", st)
	}
	fadd := prog.Insts[4]
	if !fadd.Dst.IsFP() || !fadd.Src1.IsFP() {
		t.Errorf("fadd registers not FP: %+v", fadd)
	}
}

func TestCallImplicitLink(t *testing.T) {
	prog, err := Assemble(`
    call fn
    halt
fn:
    ret r31
`)
	if err != nil {
		t.Fatal(err)
	}
	call := prog.Insts[0]
	if call.Op != isa.OpCall || call.Dst != isa.IntReg(isa.RegRA) {
		t.Errorf("call parsed as %+v", call)
	}
	if call.Imm != int64(prog.Labels["fn"]) {
		t.Errorf("call target %#x", call.Imm)
	}
}

// errorCases are sources Assemble must reject.
var errorCases = []struct{ name, src string }{
	{"unknown mnemonic", "frob r1, r2"},
	{"bad register", "add rx, r1, r2"},
	{"out of range reg", "add r99, r1, r2"},
	{"operand count", "add r1, r2"},
	{"undefined label", "jmp nowhere\nhalt"},
	{"duplicate label", "a:\nhalt\na:\nhalt"},
	{"bad immediate", "addi r1, r2, zz-3"},
	{"empty", "; nothing"},
	{"bad directive", ".data 4"},
	{"no mnemonic", ","},
	{"commas only", "halt\n , ,"},
}

func TestErrors(t *testing.T) {
	for _, c := range errorCases {
		if _, err := Assemble(c.src); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestCommentStyles(t *testing.T) {
	prog, err := Assemble(`
    addi r1, r0, 1 ; semicolon
    addi r1, r0, 2 # hash
    addi r1, r0, 3 // slashes
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Insts) != 4 {
		t.Errorf("comments broke parsing: %d insts", len(prog.Insts))
	}
}

func TestHexImmediates(t *testing.T) {
	prog, err := Assemble("addi r1, r0, 0xFF\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	if prog.Insts[0].Imm != 255 {
		t.Errorf("hex immediate = %d", prog.Insts[0].Imm)
	}
}

func TestDisassembleListing(t *testing.T) {
	prog, err := Assemble(`
main:
    addi r1, r0, 5
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	lst := Disassemble(prog)
	for _, want := range []string{"main:", "addi", "halt"} {
		if !strings.Contains(lst, want) {
			t.Errorf("listing missing %q:\n%s", want, lst)
		}
	}
}

func TestErrorHasLineNumber(t *testing.T) {
	_, err := Assemble("addi r1, r0, 1\nbogus r1\nhalt")
	if err == nil {
		t.Fatal("no error")
	}
	ae, ok := err.(*Error)
	if !ok || ae.Line != 2 {
		t.Errorf("error = %v, want line 2", err)
	}
}

// roundTripSrc exercises every operand form Canonical renders: labels in
// both directions, memory operands, a call and FP registers.
const roundTripSrc = `
.org 0x8000
start:
    addi r1, r0, 10
loop:
    subi r1, r1, 1
    ld   r2, r1, 0
    st   r2, r1, 8
    bne  r1, r0, loop
    call fn
    jmp  start
fn:
    fadd f1, f2, f3
    ret r31
`

func TestCanonicalRoundTrip(t *testing.T) {
	p1, err := Assemble(roundTripSrc)
	if err != nil {
		t.Fatal(err)
	}
	canon := Canonical(p1)
	p2, err := Assemble(canon)
	if err != nil {
		t.Fatalf("canonical form failed to reassemble: %v\n%s", err, canon)
	}
	if p2.Base != p1.Base || len(p2.Insts) != len(p1.Insts) {
		t.Fatalf("shape changed: base %#x->%#x, %d->%d insts",
			p1.Base, p2.Base, len(p1.Insts), len(p2.Insts))
	}
	for i := range p1.Insts {
		if p1.Insts[i] != p2.Insts[i] {
			t.Errorf("inst %d: %v != %v", i, p1.Insts[i], p2.Insts[i])
		}
	}
	// Idempotence: canonicalising the canonical form is stable.
	if c2 := Canonical(p2); c2 != canon {
		t.Error("Canonical not idempotent")
	}
}

// canonicalCases are accepted programs whose canonical form once failed to
// reassemble.
var canonicalCases = []string{
	"call 0",         // a numeric call target rendered with its link register
	".org 0\ncall 1", // a target inside the program but between instructions
}

// checkRoundTrip asserts Assemble(Canonical(p)) reproduces p's base and
// instructions.
func checkRoundTrip(t *testing.T, p *Program) {
	t.Helper()
	canon := Canonical(p)
	q, err := Assemble(canon)
	if err != nil {
		t.Fatalf("canonical form does not reassemble: %v\n%s", err, canon)
	}
	if q.Base != p.Base || !slices.Equal(q.Insts, p.Insts) {
		t.Fatalf("canonical form reassembles differently:\n%s", canon)
	}
}

func TestCanonicalRoundTripCases(t *testing.T) {
	for _, src := range canonicalCases {
		p, err := Assemble(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		checkRoundTrip(t, p)
	}
}
