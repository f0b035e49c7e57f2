package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestOpClassPredicates(t *testing.T) {
	cases := []struct {
		class                    OpClass
		isMem, isInt, isFP, ctrl bool
		writes                   bool
	}{
		{ClassNop, false, false, false, false, false},
		{ClassLoad, true, false, false, false, true},
		{ClassStore, true, false, false, false, false},
		{ClassIntALU, false, true, false, false, true},
		{ClassIntMult, false, true, false, false, true},
		{ClassIntDiv, false, true, false, false, true},
		{ClassFPALU, false, false, true, false, true},
		{ClassFPMult, false, false, true, false, true},
		{ClassFPDiv, false, false, true, false, true},
		{ClassBranch, false, false, false, true, false},
		{ClassJump, false, false, false, true, true},
		{ClassSyscall, false, false, false, false, false},
	}
	for _, c := range cases {
		if got := c.class.IsMem(); got != c.isMem {
			t.Errorf("%v.IsMem() = %v, want %v", c.class, got, c.isMem)
		}
		if got := c.class.IsInt(); got != c.isInt {
			t.Errorf("%v.IsInt() = %v, want %v", c.class, got, c.isInt)
		}
		if got := c.class.IsFP(); got != c.isFP {
			t.Errorf("%v.IsFP() = %v, want %v", c.class, got, c.isFP)
		}
		if got := c.class.IsCtrl(); got != c.ctrl {
			t.Errorf("%v.IsCtrl() = %v, want %v", c.class, got, c.ctrl)
		}
		if got := c.class.WritesReg(); got != c.writes {
			t.Errorf("%v.WritesReg() = %v, want %v", c.class, got, c.writes)
		}
	}
}

func TestEveryOpcodeHasNameAndClass(t *testing.T) {
	for op := Opcode(0); op < Opcode(NumOpcodes); op++ {
		name := op.String()
		if name == "" || strings.HasPrefix(name, "op(") {
			t.Errorf("opcode %d has no mnemonic", op)
		}
		if int(op.Class()) >= NumClasses {
			t.Errorf("opcode %v has invalid class", op)
		}
	}
}

func TestOpcodeByNameRoundTrip(t *testing.T) {
	for op := Opcode(0); op < Opcode(NumOpcodes); op++ {
		got, ok := OpcodeByName(op.String())
		if !ok {
			t.Fatalf("OpcodeByName(%q) not found", op.String())
		}
		if got != op {
			t.Errorf("OpcodeByName(%q) = %v, want %v", op.String(), got, op)
		}
	}
	if _, ok := OpcodeByName("bogus"); ok {
		t.Error("OpcodeByName accepted an unknown mnemonic")
	}
}

func TestMemOpsDeclareSize(t *testing.T) {
	for op := Opcode(0); op < Opcode(NumOpcodes); op++ {
		if op.Class().IsMem() && op.MemBytes() == 0 {
			t.Errorf("memory opcode %v declares no access size", op)
		}
		if !op.Class().IsMem() && op.MemBytes() != 0 {
			t.Errorf("non-memory opcode %v declares an access size", op)
		}
	}
}

func TestRegNamespace(t *testing.T) {
	r := IntReg(5)
	if r.IsFP() || r.Index() != 5 || r.String() != "r5" {
		t.Errorf("IntReg(5) misbehaves: %v %d %s", r.IsFP(), r.Index(), r)
	}
	f := FPReg(7)
	if !f.IsFP() || f.Index() != 7 || f.String() != "f7" {
		t.Errorf("FPReg(7) misbehaves: %v %d %s", f.IsFP(), f.Index(), f)
	}
	if IntReg(0) != Reg(RegZero) {
		t.Error("integer register 0 should be the zero register")
	}
}

// buildValid constructs a well-formed instruction for an opcode.
func buildValid(op Opcode) Inst {
	in := Inst{Op: op, Dst: NoReg, Src1: NoReg, Src2: NoReg}
	pick := func(i int) Reg {
		if op.FPRegs() {
			return FPReg(i)
		}
		return IntReg(i)
	}
	if op.HasDst() {
		in.Dst = pick(1)
	}
	if op.NumSrc() >= 1 {
		in.Src1 = pick(2)
	}
	if op.NumSrc() >= 2 {
		in.Src2 = pick(3)
	}
	if op.HasImm() {
		in.Imm = 42
	}
	return in
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	for op := Opcode(0); op < Opcode(NumOpcodes); op++ {
		in := buildValid(op)
		if err := in.Validate(); err != nil {
			t.Errorf("valid %v rejected: %v", op, err)
		}
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	// Missing destination.
	in := buildValid(OpAdd)
	in.Dst = NoReg
	if in.Validate() == nil {
		t.Error("add without destination accepted")
	}
	// Spurious second source.
	in = buildValid(OpNot)
	in.Src2 = IntReg(4)
	if in.Validate() == nil {
		t.Error("not with second source accepted")
	}
	// Spurious destination.
	in = buildValid(OpSt)
	in.Dst = IntReg(4)
	if in.Validate() == nil {
		t.Error("store with destination accepted")
	}
	// Invalid opcode.
	in = Inst{Op: Opcode(250), Dst: NoReg, Src1: NoReg, Src2: NoReg}
	if in.Validate() == nil {
		t.Error("invalid opcode accepted")
	}
}

// TestValidateBoundsRegisters: an operand must name a register of
// either file or be NoReg. Every other byte value would index past the
// core's 32-entry rename tables.
func TestValidateBoundsRegisters(t *testing.T) {
	for r := 0; r < 256; r++ {
		reg := Reg(r)
		want := r < NumIntRegs || (r >= int(FPBase) && r < int(FPBase)+NumFPRegs) || reg == NoReg
		if reg.Valid() != want {
			t.Errorf("Reg(%d).Valid() = %v, want %v", r, reg.Valid(), want)
		}
		if reg == NoReg {
			continue
		}
		for _, set := range []func(*Inst){
			func(in *Inst) { in.Dst = reg },
			func(in *Inst) { in.Src1 = reg },
			func(in *Inst) { in.Src2 = reg },
		} {
			in := buildValid(OpAdd)
			set(&in)
			if err := in.Validate(); (err == nil) != want {
				t.Errorf("add with register %d: Validate err = %v", r, err)
			}
		}
	}
}

func TestDisassemblyMentionsOperands(t *testing.T) {
	in := Inst{Op: OpAdd, Dst: IntReg(3), Src1: IntReg(4), Src2: IntReg(5)}
	s := in.String()
	for _, want := range []string{"add", "r3", "r4", "r5"} {
		if !strings.Contains(s, want) {
			t.Errorf("disassembly %q missing %q", s, want)
		}
	}
	ld := Inst{Op: OpLd, Dst: IntReg(1), Src1: IntReg(2), Src2: NoReg, Imm: 16}
	if !strings.Contains(ld.String(), "16") {
		t.Errorf("load disassembly %q missing displacement", ld.String())
	}
}

// Property: every well-formed instruction built from a random opcode
// validates, and its class predicates are mutually exclusive.
func TestQuickValidInstructions(t *testing.T) {
	f := func(raw uint8) bool {
		op := Opcode(int(raw) % NumOpcodes)
		in := buildValid(op)
		if in.Validate() != nil {
			return false
		}
		c := in.Class()
		exclusive := 0
		if c.IsMem() {
			exclusive++
		}
		if c.IsInt() {
			exclusive++
		}
		if c.IsFP() {
			exclusive++
		}
		if c.IsCtrl() {
			exclusive++
		}
		return exclusive <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
