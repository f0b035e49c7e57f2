// Package isa defines the instruction set architecture used by the
// simulator: operation classes, opcodes, registers, and the dynamic and
// static instruction representations.
//
// The ISA is a small load/store RISC machine ("SimpleISA") designed to be
// rich enough to exercise every pipeline structure the DCG paper gates:
// integer ALUs, integer multiply/divide units, floating-point ALUs,
// floating-point multiply/divide units, D-cache ports (loads and stores),
// result buses, and the branch machinery. It is deliberately Alpha-flavoured
// (the paper simulates Alpha SPEC2000 binaries) without being Alpha.
package isa

import "fmt"

// OpClass is the coarse functional class of an instruction. The pipeline
// uses it to pick an execution unit type, and the clock-gating logic uses
// it to decide which block an instruction will occupy.
type OpClass uint8

// Operation classes. The ordering is load/store first so that simple
// range checks (IsMem) stay cheap in the simulator's hot loop.
const (
	ClassNop OpClass = iota
	ClassLoad
	ClassStore
	ClassIntALU
	ClassIntMult
	ClassIntDiv
	ClassFPALU
	ClassFPMult
	ClassFPDiv
	ClassBranch // conditional branch
	ClassJump   // unconditional jump, call, return
	ClassSyscall
	numClasses
)

// NumClasses is the number of distinct operation classes.
const NumClasses = int(numClasses)

var classNames = [...]string{
	ClassNop:     "nop",
	ClassLoad:    "load",
	ClassStore:   "store",
	ClassIntALU:  "int-alu",
	ClassIntMult: "int-mult",
	ClassIntDiv:  "int-div",
	ClassFPALU:   "fp-alu",
	ClassFPMult:  "fp-mult",
	ClassFPDiv:   "fp-div",
	ClassBranch:  "branch",
	ClassJump:    "jump",
	ClassSyscall: "syscall",
}

// String returns the human-readable class name.
func (c OpClass) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// IsMem reports whether the class accesses the data cache.
func (c OpClass) IsMem() bool { return c == ClassLoad || c == ClassStore }

// IsInt reports whether the class executes on an integer unit
// (ALU or multiplier/divider).
func (c OpClass) IsInt() bool {
	return c == ClassIntALU || c == ClassIntMult || c == ClassIntDiv
}

// IsFP reports whether the class executes on a floating-point unit.
func (c OpClass) IsFP() bool {
	return c == ClassFPALU || c == ClassFPMult || c == ClassFPDiv
}

// IsCtrl reports whether the class redirects control flow.
func (c OpClass) IsCtrl() bool { return c == ClassBranch || c == ClassJump }

// WritesReg reports whether instructions of this class produce a register
// result (and therefore drive a result bus at writeback).
func (c OpClass) WritesReg() bool {
	switch c {
	case ClassStore, ClassBranch, ClassNop, ClassSyscall:
		return false
	default:
		return true
	}
}

// Register file geometry. Integer and floating-point architectural
// registers live in separate name spaces, as on Alpha.
const (
	NumIntRegs = 32
	NumFPRegs  = 32

	// RegZero is the hardwired integer zero register (reads as 0,
	// writes are discarded), like Alpha's r31 / MIPS's r0.
	RegZero = 0

	// RegSP and RegRA are software conventions used by the assembler
	// and the emulator for stack pointer and return address.
	RegSP = 30
	RegRA = 31
)

// Reg identifies an architectural register. Integer registers are
// 0..NumIntRegs-1; floating-point registers are offset by FPBase so a
// single flat namespace can describe any operand.
type Reg uint8

// FPBase is the offset of floating-point registers in the flat register
// namespace used by Reg.
const FPBase Reg = 64

// IsFP reports whether r names a floating-point register.
func (r Reg) IsFP() bool { return r >= FPBase }

// Index returns the register's index within its own file.
func (r Reg) Index() int {
	if r.IsFP() {
		return int(r - FPBase)
	}
	return int(r)
}

// IntReg returns the flat name of integer register i.
func IntReg(i int) Reg { return Reg(i) }

// FPReg returns the flat name of floating-point register i.
func FPReg(i int) Reg { return FPBase + Reg(i) }

// String renders the register using assembler syntax (r# / f#).
func (r Reg) String() string {
	if r.IsFP() {
		return fmt.Sprintf("f%d", r.Index())
	}
	return fmt.Sprintf("r%d", r.Index())
}

// NoReg marks an absent operand.
const NoReg Reg = 0xFF

// Opcode enumerates the concrete operations of SimpleISA.
type Opcode uint8

// Opcodes. The set intentionally mirrors the mix SimpleScalar's Alpha
// decoder produces: it has enough variety for the assembler/emulator to
// express real kernels while every opcode maps onto exactly one OpClass.
const (
	OpNop Opcode = iota

	// Integer ALU.
	OpAdd
	OpAddI
	OpSub
	OpSubI
	OpAnd
	OpOr
	OpXor
	OpNot
	OpShl
	OpShr
	OpSar
	OpSlt  // set if less than
	OpSltI // set if less than immediate
	OpLui  // load upper immediate
	OpMov

	// Integer multiply / divide.
	OpMul
	OpDiv
	OpRem

	// Floating point.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFNeg
	OpFAbs
	OpFCmpLt
	OpFCmpEq
	OpCvtIF // int -> fp
	OpCvtFI // fp -> int

	// Memory.
	OpLd  // load 64-bit integer
	OpSt  // store 64-bit integer
	OpLdF // load fp
	OpStF // store fp

	// Control.
	OpBeq
	OpBne
	OpBlt
	OpBge
	OpJmp
	OpCall
	OpRet

	// System.
	OpHalt
	numOpcodes
)

// NumOpcodes is the number of defined opcodes.
const NumOpcodes = int(numOpcodes)

type opInfo struct {
	name    string
	class   OpClass
	nsrc    int  // register source operands
	hasDst  bool // writes a destination register
	hasImm  bool // carries an immediate
	fpRegs  bool // operands default to FP registers in the assembler
	memSize int  // bytes touched by memory ops
}

var opTable = [...]opInfo{
	OpNop:  {name: "nop", class: ClassNop},
	OpAdd:  {name: "add", class: ClassIntALU, nsrc: 2, hasDst: true},
	OpAddI: {name: "addi", class: ClassIntALU, nsrc: 1, hasDst: true, hasImm: true},
	OpSub:  {name: "sub", class: ClassIntALU, nsrc: 2, hasDst: true},
	OpSubI: {name: "subi", class: ClassIntALU, nsrc: 1, hasDst: true, hasImm: true},
	OpAnd:  {name: "and", class: ClassIntALU, nsrc: 2, hasDst: true},
	OpOr:   {name: "or", class: ClassIntALU, nsrc: 2, hasDst: true},
	OpXor:  {name: "xor", class: ClassIntALU, nsrc: 2, hasDst: true},
	OpNot:  {name: "not", class: ClassIntALU, nsrc: 1, hasDst: true},
	OpShl:  {name: "shl", class: ClassIntALU, nsrc: 2, hasDst: true},
	OpShr:  {name: "shr", class: ClassIntALU, nsrc: 2, hasDst: true},
	OpSar:  {name: "sar", class: ClassIntALU, nsrc: 2, hasDst: true},
	OpSlt:  {name: "slt", class: ClassIntALU, nsrc: 2, hasDst: true},
	OpSltI: {name: "slti", class: ClassIntALU, nsrc: 1, hasDst: true, hasImm: true},
	OpLui:  {name: "lui", class: ClassIntALU, hasDst: true, hasImm: true},
	OpMov:  {name: "mov", class: ClassIntALU, nsrc: 1, hasDst: true},

	OpMul: {name: "mul", class: ClassIntMult, nsrc: 2, hasDst: true},
	OpDiv: {name: "div", class: ClassIntDiv, nsrc: 2, hasDst: true},
	OpRem: {name: "rem", class: ClassIntDiv, nsrc: 2, hasDst: true},

	OpFAdd:   {name: "fadd", class: ClassFPALU, nsrc: 2, hasDst: true, fpRegs: true},
	OpFSub:   {name: "fsub", class: ClassFPALU, nsrc: 2, hasDst: true, fpRegs: true},
	OpFMul:   {name: "fmul", class: ClassFPMult, nsrc: 2, hasDst: true, fpRegs: true},
	OpFDiv:   {name: "fdiv", class: ClassFPDiv, nsrc: 2, hasDst: true, fpRegs: true},
	OpFNeg:   {name: "fneg", class: ClassFPALU, nsrc: 1, hasDst: true, fpRegs: true},
	OpFAbs:   {name: "fabs", class: ClassFPALU, nsrc: 1, hasDst: true, fpRegs: true},
	OpFCmpLt: {name: "fcmplt", class: ClassFPALU, nsrc: 2, hasDst: true, fpRegs: true},
	OpFCmpEq: {name: "fcmpeq", class: ClassFPALU, nsrc: 2, hasDst: true, fpRegs: true},
	OpCvtIF:  {name: "cvtif", class: ClassFPALU, nsrc: 1, hasDst: true},
	OpCvtFI:  {name: "cvtfi", class: ClassFPALU, nsrc: 1, hasDst: true},

	OpLd:  {name: "ld", class: ClassLoad, nsrc: 1, hasDst: true, hasImm: true, memSize: 8},
	OpSt:  {name: "st", class: ClassStore, nsrc: 2, hasImm: true, memSize: 8},
	OpLdF: {name: "ldf", class: ClassLoad, nsrc: 1, hasDst: true, hasImm: true, fpRegs: true, memSize: 8},
	OpStF: {name: "stf", class: ClassStore, nsrc: 2, hasImm: true, fpRegs: true, memSize: 8},

	OpBeq:  {name: "beq", class: ClassBranch, nsrc: 2, hasImm: true},
	OpBne:  {name: "bne", class: ClassBranch, nsrc: 2, hasImm: true},
	OpBlt:  {name: "blt", class: ClassBranch, nsrc: 2, hasImm: true},
	OpBge:  {name: "bge", class: ClassBranch, nsrc: 2, hasImm: true},
	OpJmp:  {name: "jmp", class: ClassJump, hasImm: true},
	OpCall: {name: "call", class: ClassJump, hasDst: true, hasImm: true},
	OpRet:  {name: "ret", class: ClassJump, nsrc: 1},

	OpHalt: {name: "halt", class: ClassSyscall},
}

// String returns the mnemonic for the opcode.
func (o Opcode) String() string {
	if int(o) < len(opTable) && opTable[o].name != "" {
		return opTable[o].name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Class returns the operation class of the opcode.
func (o Opcode) Class() OpClass {
	if int(o) < len(opTable) {
		return opTable[o].class
	}
	return ClassNop
}

// NumSrc returns the number of register source operands the opcode reads.
func (o Opcode) NumSrc() int {
	if int(o) < len(opTable) {
		return opTable[o].nsrc
	}
	return 0
}

// HasDst reports whether the opcode writes a destination register.
func (o Opcode) HasDst() bool {
	if int(o) < len(opTable) {
		return opTable[o].hasDst
	}
	return false
}

// HasImm reports whether the opcode carries an immediate operand.
func (o Opcode) HasImm() bool {
	if int(o) < len(opTable) {
		return opTable[o].hasImm
	}
	return false
}

// FPRegs reports whether the assembler should default the opcode's register
// operands to the floating-point file.
func (o Opcode) FPRegs() bool {
	if int(o) < len(opTable) {
		return opTable[o].fpRegs
	}
	return false
}

// MemBytes returns the number of bytes a memory opcode touches (0 for
// non-memory opcodes).
func (o Opcode) MemBytes() int {
	if int(o) < len(opTable) {
		return opTable[o].memSize
	}
	return 0
}

// OpcodeByName resolves an assembler mnemonic; ok is false if unknown.
func OpcodeByName(name string) (Opcode, bool) {
	op, ok := nameToOp[name]
	return op, ok
}

var nameToOp = func() map[string]Opcode {
	m := make(map[string]Opcode, len(opTable))
	for op, info := range opTable {
		if info.name != "" {
			m[info.name] = Opcode(op)
		}
	}
	return m
}()

// Inst is a static (decoded) instruction.
type Inst struct {
	Op   Opcode
	Dst  Reg   // NoReg if none
	Src1 Reg   // NoReg if none
	Src2 Reg   // NoReg if none
	Imm  int64 // immediate / displacement / branch target PC
}

// Class returns the instruction's operation class.
func (in Inst) Class() OpClass { return in.Op.Class() }

// String disassembles the instruction.
func (in Inst) String() string {
	info := opTable[in.Op]
	s := info.name
	sep := " "
	if info.hasDst {
		s += sep + in.Dst.String()
		sep = ", "
	}
	if info.nsrc >= 1 {
		s += sep + in.Src1.String()
		sep = ", "
	}
	if info.nsrc >= 2 {
		s += sep + in.Src2.String()
		sep = ", "
	}
	if info.hasImm {
		s += fmt.Sprintf("%s%d", sep, in.Imm)
	}
	return s
}

// Valid reports whether r names a register of either file (0..31 or
// FPBase..FPBase+31) or is NoReg.
func (r Reg) Valid() bool {
	return r < NumIntRegs || (r >= FPBase && r < FPBase+NumFPRegs) || r == NoReg
}

// Validate reports whether the instruction's opcode is defined, its
// operand pattern matches the opcode's signature, and every operand names
// a register of either file or is NoReg (used by property tests, the
// assembler and the trace-file reader).
func (in Inst) Validate() error {
	if int(in.Op) >= NumOpcodes {
		return fmt.Errorf("isa: invalid opcode %d", in.Op)
	}
	for _, r := range [...]Reg{in.Dst, in.Src1, in.Src2} {
		if !r.Valid() {
			return fmt.Errorf("isa: register %d names neither file (0-%d, %d-%d)",
				uint8(r), NumIntRegs-1, FPBase, FPBase+NumFPRegs-1)
		}
	}
	info := opTable[in.Op]
	if info.hasDst && in.Dst == NoReg {
		return fmt.Errorf("isa: %s requires a destination register", info.name)
	}
	if !info.hasDst && in.Dst != NoReg {
		return fmt.Errorf("isa: %s takes no destination register", info.name)
	}
	if info.nsrc >= 1 && in.Src1 == NoReg {
		return fmt.Errorf("isa: %s requires a first source register", info.name)
	}
	if info.nsrc >= 2 && in.Src2 == NoReg {
		return fmt.Errorf("isa: %s requires a second source register", info.name)
	}
	if info.nsrc < 2 && in.Src2 != NoReg {
		return fmt.Errorf("isa: %s takes no second source register", info.name)
	}
	if info.nsrc < 1 && in.Src1 != NoReg {
		return fmt.Errorf("isa: %s takes no source registers", info.name)
	}
	return nil
}
