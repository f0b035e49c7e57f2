// Package asm implements a two-pass assembler for the simulator's ISA,
// so real (small) programs can drive the pipeline in addition to the
// synthetic SPEC2000-like workloads.
//
// Syntax:
//
//	; line comment (also #)
//	.org 0x400000          ; set the load address (once, before code)
//	start:                 ; labels end with a colon
//	    addi r1, r0, 10    ; immediates are decimal or 0x-hex
//	loop:
//	    add  r2, r2, r1
//	    subi r1, r1, 1
//	    bne  r1, r0, loop  ; control targets are labels or addresses
//	    ld   r3, r2, 8     ; loads: dst, base, displacement
//	    st   r3, r2, 16    ; stores: value, base, displacement
//	    fadd f1, f2, f3    ; FP registers use the f prefix
//	    call func
//	    halt
//	func:
//	    ret r31
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"dcg/internal/isa"
)

// Program is an assembled program image.
type Program struct {
	Base  uint64
	Insts []isa.Inst

	// Labels maps label names to absolute addresses (useful to place
	// data pointers and for test introspection).
	Labels map[string]uint64
}

// PCOf returns the address of instruction index i.
func (p *Program) PCOf(i int) uint64 { return p.Base + uint64(i)*4 }

// DefaultBase is the load address used when no .org directive appears.
const DefaultBase = 0x0040_0000

// Error is an assembly error with line information.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

type pendingInst struct {
	line  int
	inst  isa.Inst
	label string // unresolved control-target label ("" if none)
}

// Assemble translates source text into a program image.
func Assemble(src string) (*Program, error) {
	prog := &Program{Base: DefaultBase, Labels: map[string]uint64{}}
	var pending []pendingInst
	sawCode := false

	for lineNo, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		num := lineNo + 1

		// Labels (possibly several) at the start of the line.
		for {
			idx := strings.Index(line, ":")
			if idx < 0 {
				break
			}
			head := strings.TrimSpace(line[:idx])
			if !isIdent(head) {
				break
			}
			if _, dup := prog.Labels[head]; dup {
				return nil, errf(num, "duplicate label %q", head)
			}
			prog.Labels[head] = prog.Base + uint64(len(pending))*4
			line = strings.TrimSpace(line[idx+1:])
		}
		if line == "" {
			continue
		}

		if strings.HasPrefix(line, ".") {
			if err := directive(prog, line, num, sawCode); err != nil {
				return nil, err
			}
			continue
		}

		pi, err := parseInst(line, num)
		if err != nil {
			return nil, err
		}
		sawCode = true
		pending = append(pending, pi)
	}

	// Second pass: resolve labels.
	for _, pi := range pending {
		in := pi.inst
		if pi.label != "" {
			addr, ok := prog.Labels[pi.label]
			if !ok {
				return nil, errf(pi.line, "undefined label %q", pi.label)
			}
			in.Imm = int64(addr)
		}
		if err := in.Validate(); err != nil {
			return nil, errf(pi.line, "%v", err)
		}
		prog.Insts = append(prog.Insts, in)
	}
	if len(prog.Insts) == 0 {
		return nil, errf(0, "empty program")
	}
	return prog, nil
}

func stripComment(line string) string {
	for _, marker := range []string{";", "#", "//"} {
		if idx := strings.Index(line, marker); idx >= 0 {
			line = line[:idx]
		}
	}
	return line
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func directive(prog *Program, line string, num int, sawCode bool) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case ".org":
		if len(fields) != 2 {
			return errf(num, ".org takes one address")
		}
		if sawCode {
			return errf(num, ".org must precede code")
		}
		v, err := parseImm(fields[1])
		if err != nil {
			return errf(num, "bad .org address %q", fields[1])
		}
		if v < 0 || v%4 != 0 {
			return errf(num, ".org address must be non-negative and 4-aligned")
		}
		prog.Base = uint64(v)
		return nil
	default:
		return errf(num, "unknown directive %s", fields[0])
	}
}

func parseImm(s string) (int64, error) {
	return strconv.ParseInt(s, 0, 64)
}

// parseReg parses r# / f# register syntax.
func parseReg(s string, line int) (isa.Reg, error) {
	if len(s) < 2 {
		return isa.NoReg, errf(line, "bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil {
		return isa.NoReg, errf(line, "bad register %q", s)
	}
	switch s[0] {
	case 'r':
		if n < 0 || n >= isa.NumIntRegs {
			return isa.NoReg, errf(line, "integer register %q out of range", s)
		}
		return isa.IntReg(n), nil
	case 'f':
		if n < 0 || n >= isa.NumFPRegs {
			return isa.NoReg, errf(line, "fp register %q out of range", s)
		}
		return isa.FPReg(n), nil
	}
	return isa.NoReg, errf(line, "bad register %q", s)
}

// parseInst parses one instruction line.
func parseInst(line string, num int) (pendingInst, error) {
	fields := strings.Fields(strings.ReplaceAll(line, ",", " "))
	if len(fields) == 0 {
		return pendingInst{}, errf(num, "expected an instruction, got %q", line)
	}
	op, ok := isa.OpcodeByName(fields[0])
	if !ok {
		return pendingInst{}, errf(num, "unknown mnemonic %q", fields[0])
	}
	args := fields[1:]
	in := isa.Inst{Op: op, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg}
	pi := pendingInst{line: num}

	want := 0
	if op.HasDst() {
		want++
	}
	want += op.NumSrc()
	if op.HasImm() {
		want++
	}
	// Calls take only a target label; the link register is implicit.
	if op == isa.OpCall {
		want = 1
	}
	if len(args) != want {
		return pendingInst{}, errf(num, "%s takes %d operands, got %d", op, want, len(args))
	}

	next := 0
	take := func() string { s := args[next]; next++; return s }

	if op.HasDst() && op != isa.OpCall {
		r, err := parseReg(take(), num)
		if err != nil {
			return pendingInst{}, err
		}
		in.Dst = r
	}
	for s := 0; s < op.NumSrc(); s++ {
		r, err := parseReg(take(), num)
		if err != nil {
			return pendingInst{}, err
		}
		if s == 0 {
			in.Src1 = r
		} else {
			in.Src2 = r
		}
	}
	if op == isa.OpCall {
		in.Dst = isa.IntReg(isa.RegRA)
	}
	if op.HasImm() {
		tok := take()
		if v, err := parseImm(tok); err == nil {
			in.Imm = v
		} else if isIdent(tok) {
			pi.label = tok
		} else {
			return pendingInst{}, errf(num, "bad immediate or label %q", tok)
		}
	}
	pi.inst = in
	return pi, nil
}

// Disassemble renders a program listing.
func Disassemble(p *Program) string {
	var b strings.Builder
	byAddr := map[uint64][]string{}
	for name, addr := range p.Labels {
		byAddr[addr] = append(byAddr[addr], name)
	}
	for i, in := range p.Insts {
		pc := p.PCOf(i)
		for _, name := range byAddr[pc] {
			fmt.Fprintf(&b, "%s:\n", name)
		}
		fmt.Fprintf(&b, "  %08x  %s\n", pc, in)
	}
	return b.String()
}

// Canonical renders the program as parseable assembly: control-flow
// targets become generated labels, so Assemble(Canonical(p)) reproduces an
// equivalent program. Useful for program transformations and for
// round-trip testing.
func Canonical(p *Program) string {
	// Collect every control target that is an instruction of the program.
	labelAt := map[uint64]string{}
	nextLabel := 0
	for _, in := range p.Insts {
		if !in.Op.Class().IsCtrl() || in.Op == isa.OpRet {
			continue
		}
		addr := uint64(in.Imm)
		if addr < p.Base || addr >= p.Base+uint64(len(p.Insts))*4 || (addr-p.Base)%4 != 0 {
			continue // external or between instructions: keep numeric
		}
		if _, ok := labelAt[addr]; !ok {
			labelAt[addr] = fmt.Sprintf("L%d", nextLabel)
			nextLabel++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, ".org %#x\n", p.Base)
	for i, in := range p.Insts {
		pc := p.PCOf(i)
		if lbl, ok := labelAt[pc]; ok {
			fmt.Fprintf(&b, "%s:\n", lbl)
		}
		if in.Op.Class().IsCtrl() && in.Op != isa.OpRet {
			target, ok := labelAt[uint64(in.Imm)]
			if !ok {
				target = strconv.FormatInt(in.Imm, 10)
			}
			b.WriteString("    " + renderWithTarget(in, target) + "\n")
			continue
		}
		b.WriteString("    " + in.String() + "\n")
	}
	return b.String()
}

// renderWithTarget renders a control instruction with its target, a label
// or an address. A call's link register is implicit, as Assemble expects.
func renderWithTarget(in isa.Inst, target string) string {
	switch in.Op {
	case isa.OpJmp, isa.OpCall:
		return fmt.Sprintf("%s %s", in.Op, target)
	default: // conditional branches
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Src1, in.Src2, target)
	}
}
