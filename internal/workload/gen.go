package workload

import (
	"fmt"
	"maps"
	"slices"

	"dcg/internal/isa"
	"dcg/internal/trace"
)

// Memory region identifiers.
const (
	regionHot = iota
	regionWarm
	regionCold
	numRegions
)

// Region base addresses (disjoint, far from code).
var regionBase = [numRegions]uint64{
	regionHot:  0x1000_0000,
	regionWarm: 0x2000_0000,
	regionCold: 0x4000_0000,
}

// termKind classifies a basic block's terminator.
type termKind int

const (
	termLoop termKind = iota
	termBiased
	termRandom
	termJump
	termCall
	termRet
)

// instTmpl is one static instruction slot of a block.
type instTmpl struct {
	inst   isa.Inst
	region int  // fixed memory region, or regionDynamic
	serial bool // participates in the serial dependence chain
}

// maxLoopDwell bounds the instructions one loop visit may execute before
// the terminator is forced to exit, so the realized mix averages over many
// blocks rather than a single hot nest.
const maxLoopDwell = 1500

// regionDynamic marks memory templates whose region is drawn per access,
// so the profile's region fractions hold regardless of which blocks the
// walk concentrates on.
const regionDynamic = -1

// block is one basic block of the synthetic program.
type block struct {
	pc       uint64 // address of first instruction
	insts    []instTmpl
	term     termKind
	takenIdx int     // block index of the taken target / call target
	fallIdx  int     // block index of the sequential successor
	loopMean float64 // mean trip count (loop terminators)
}

// lastPC returns the terminator's PC.
func (b *block) lastPC() uint64 { return b.pc + uint64(len(b.insts)-1)*4 }

// program is the synthetic static program.
type program struct {
	blocks   []block
	funcs    []int // indices of function blocks (called, end with ret)
	numWalk  int   // number of non-function blocks
	codeBase uint64
}

// Register pools. Low registers rotate as destinations; high registers are
// long-lived bases and chain registers.
const (
	intDstLo, intDstHi = 1, 23 // rotating integer destinations
	fpDstLo, fpDstHi   = 0, 27 // rotating FP destinations

	regHotBase  = 26 // long-lived region base registers
	regWarmBase = 27
	regColdBase = 28
	regChainInt = 25 // serial-chain integer register
	regGlobal   = 24 // long-lived global
	fpChain     = 29 // serial-chain FP register
	fpGlobal    = 28
)

// Generator produces the dynamic instruction stream for one profile. It
// implements trace.Source.
type Generator struct {
	prof Profile
	prog *program
	rng  *rng

	// Walk state.
	curBlk   int
	curInst  int
	seq      uint64
	loopLeft map[int]int // remaining trips for active self-loops
	callRet  []int       // generator-side return stack (block indices)

	// Region cursors.
	cursor [numRegions]uint64

	// dwell counts instructions since the last far control transfer; when
	// it exceeds maxLoopDwell, loop terminators are forced to exit so no
	// loop-nest region can hold the walk indefinitely (nested trip counts
	// multiply otherwise).
	dwell int

	// Dependency-chain freshness: the most recent dst registers, used to
	// give branches nearby producers.
	lastIntDst isa.Reg
	lastFPDst  isa.Reg
}

// NewGenerator builds a deterministic generator for the profile.
func NewGenerator(p Profile) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	r := newRNG(p.Seed)
	prog := buildProgram(p, r)
	g := &Generator{
		prof:       p,
		prog:       prog,
		rng:        newRNG(p.Seed ^ 0xDC6_DC6_DC6),
		loopLeft:   make(map[int]int),
		lastIntDst: isa.IntReg(regGlobal),
		lastFPDst:  isa.FPReg(fpGlobal),
	}
	return g, nil
}

// MustGenerator is NewGenerator, panicking on bad profiles (used by
// examples and benchmarks where profiles come from the built-in table).
func MustGenerator(p Profile) *Generator {
	g, err := NewGenerator(p)
	if err != nil {
		panic(err)
	}
	return g
}

// Name implements trace.Source.
func (g *Generator) Name() string { return g.prof.Name }

// Clone returns an independent generator at the same point of the same
// walk: the two produce identical streams from here on. The static
// program is read-only and shared; the walk state is copied.
func (g *Generator) Clone() *Generator {
	c := *g
	r := *g.rng
	c.rng = &r
	c.loopLeft = maps.Clone(g.loopLeft)
	c.callRet = slices.Clone(g.callRet)
	return &c
}

// Reset rewinds the dynamic walk (the static program is preserved).
func (g *Generator) Reset() {
	g.rng = newRNG(g.prof.Seed ^ 0xDC6_DC6_DC6)
	g.curBlk, g.curInst, g.seq = 0, 0, 0
	g.dwell = 0
	g.loopLeft = make(map[int]int)
	g.callRet = g.callRet[:0]
	g.cursor = [numRegions]uint64{}
	g.lastIntDst = isa.IntReg(regGlobal)
	g.lastFPDst = isa.FPReg(fpGlobal)
}

// Next implements trace.Source. The stream is infinite; callers wrap the
// generator in trace.LimitSource.
func (g *Generator) Next() (trace.DynInst, bool) {
	blk := &g.prog.blocks[g.curBlk]
	tmpl := &blk.insts[g.curInst]
	d := trace.DynInst{
		PC:   blk.pc + uint64(g.curInst)*4,
		Inst: tmpl.inst,
		Seq:  g.seq,
	}
	g.seq++
	g.dwell++

	isTerm := g.curInst == len(blk.insts)-1
	switch {
	case isTerm:
		g.resolveTerminator(blk, &d)
	case d.Inst.Class().IsMem():
		d.EA = g.nextEA(tmpl)
		g.curInst++
	case d.Inst.Class() == isa.ClassBranch:
		// Interior branches are never taken (forward guards).
		d.Taken = false
		d.Target = d.PC + 4
		g.curInst++
	default:
		g.curInst++
	}
	if d.Inst.Op.HasDst() {
		if d.Inst.Dst.IsFP() {
			g.lastFPDst = d.Inst.Dst
		} else {
			g.lastIntDst = d.Inst.Dst
		}
	}
	d.Value = g.valueFor(&d)
	return d, true
}

// valueFor synthesizes the architectural value the instruction carries
// down the pipeline (trace.DynInst.Value). Memory and control
// instructions carry their real resolved EA/target, mirroring the emu
// front end; computed results are modeled: a pure hash of the
// instruction's dynamic identity, mapped to a low-entropy distribution
// (three quarters of results collapse onto the common values real
// programs produce in bulk — zeros, flags, small counters — the rest
// are full-width). The mapping deliberately does NOT consume g.rng:
// one extra draw per instruction would perturb every instruction
// stream and invalidate all existing golden runs.
func (g *Generator) valueFor(d *trace.DynInst) uint64 {
	switch {
	case d.Inst.Class().IsMem():
		return d.EA
	case d.Inst.Class().IsCtrl():
		return d.Target
	case !d.Inst.Op.HasDst():
		return 0
	}
	h := mix64(d.PC*0x9E3779B97F4A7C15 + d.Seq*0xBF58476D1CE4E5B9)
	if h&3 != 3 {
		return (h >> 2) & 1
	}
	return h
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed bijection.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// resolveTerminator decides the control transfer and advances the walk.
func (g *Generator) resolveTerminator(blk *block, d *trace.DynInst) {
	cur := g.curBlk
	takenPC := g.prog.blocks[blk.takenIdx].pc
	fallPC := d.PC + 4

	switch blk.term {
	case termLoop:
		left, active := g.loopLeft[cur]
		if !active {
			left = g.rng.geometric(blk.loopMean)
		}
		left--
		if left > 0 && g.dwell <= maxLoopDwell {
			g.loopLeft[cur] = left
			d.Taken = true
			d.Target = takenPC
			g.gotoBlock(blk.takenIdx)
		} else {
			// Natural exit, or a forced one: the nest has held the walk
			// for its dwell budget.
			delete(g.loopLeft, cur)
			d.Taken = false
			d.Target = fallPC
			g.gotoBlock(blk.fallIdx)
		}
	case termBiased:
		if g.rng.bernoulli(g.prof.Branch.BiasedTakenProb) {
			d.Taken = true
			d.Target = takenPC
			g.farTransfer(blk.takenIdx)
			g.gotoBlock(blk.takenIdx)
		} else {
			d.Taken = false
			d.Target = fallPC
			g.gotoBlock(blk.fallIdx)
		}
	case termRandom:
		if g.rng.bernoulli(0.5) {
			d.Taken = true
			d.Target = takenPC
			g.gotoBlock(blk.takenIdx)
		} else {
			d.Taken = false
			d.Target = fallPC
			g.gotoBlock(blk.fallIdx)
		}
	case termJump:
		d.Taken = true
		d.Target = takenPC
		g.farTransfer(blk.takenIdx)
		g.gotoBlock(blk.takenIdx)
	case termCall:
		d.Taken = true
		d.Target = takenPC
		g.callRet = append(g.callRet, blk.fallIdx)
		g.gotoBlock(blk.takenIdx)
	case termRet:
		d.Taken = true
		if n := len(g.callRet); n > 0 {
			retIdx := g.callRet[n-1]
			g.callRet = g.callRet[:n-1]
			d.Target = g.prog.blocks[retIdx].pc
			g.gotoBlock(retIdx)
		} else {
			// Stray return (walk started inside a function): restart.
			d.Target = g.prog.blocks[0].pc
			g.gotoBlock(0)
		}
	}
}

func (g *Generator) gotoBlock(idx int) {
	g.curBlk = idx
	g.curInst = 0
}

// farTransfer resets the dwell budget when the walk leaves its current
// neighbourhood (more than three blocks away).
func (g *Generator) farTransfer(target int) {
	if target > g.curBlk+3 || target < g.curBlk-3 {
		g.dwell = 0
	}
}

// pickRegion draws a memory region according to the profile fractions.
func (g *Generator) pickRegion() int {
	x := g.rng.float()
	switch {
	case x < g.prof.Mem.HotFrac:
		return regionHot
	case x < g.prof.Mem.HotFrac+g.prof.Mem.WarmFrac:
		return regionWarm
	default:
		return regionCold
	}
}

// nextEA produces the effective address for a memory template.
func (g *Generator) nextEA(tmpl *instTmpl) uint64 {
	m := &g.prof.Mem
	region := tmpl.region
	if region == regionDynamic {
		region = g.pickRegion()
	}
	var size uint64
	switch region {
	case regionHot:
		size = m.HotBytes
	case regionWarm:
		size = m.WarmBytes
	default:
		size = m.ColdBytes
	}
	if size == 0 {
		size = defaultRegionBytes
	}
	switch {
	case region == regionCold && m.PointerChase:
		// Pointer chase: uniformly random node within the cold region,
		// aligned to the stride.
		off := (g.rng.next() % (size / m.Stride)) * m.Stride
		return regionBase[region] + off
	case region == regionWarm:
		// Warm accesses scatter uniformly over an L2-resident working
		// set: mostly L1 misses that hit in L2 once the set is warm.
		off := (g.rng.next() % (size / m.Stride)) * m.Stride
		return regionBase[region] + off
	default:
		cur := g.cursor[region]
		g.cursor[region] = (cur + m.Stride) % size
		return regionBase[region] + cur
	}
}

// defaultRegionBytes is the size of a memory region whose profile size
// is 0.
const defaultRegionBytes = 4096

// buildProgram synthesises the static program for a profile.
func buildProgram(p Profile, r *rng) *program {
	nFuncs := p.Blocks / 8
	if nFuncs < 1 {
		nFuncs = 1
	}
	nWalk := p.Blocks - nFuncs
	if nWalk < 2 {
		nWalk = 2
	}
	total := nWalk + nFuncs

	prog := &program{
		blocks:   make([]block, total),
		numWalk:  nWalk,
		codeBase: 0x0040_0000,
	}
	for i := 0; i < nFuncs; i++ {
		prog.funcs = append(prog.funcs, nWalk+i)
	}

	bld := &builder{prof: p, rng: r, cum: p.Mix.cumulative()}

	pc := prog.codeBase
	for i := range prog.blocks {
		isFunc := i >= nWalk
		b := bld.buildBlock(p, i, nWalk, prog.funcs, isFunc)
		b.pc = pc
		pc += uint64(len(b.insts)) * 4
		prog.blocks[i] = b
	}
	return prog
}

// cumulative op-class distribution for sampling interior instructions.
type cumMix struct {
	bounds  [10]float64
	classes [10]isa.OpClass
}

func (m OpMix) cumulative() cumMix {
	entries := []struct {
		f float64
		c isa.OpClass
	}{
		{m.IntALU, isa.ClassIntALU},
		{m.IntMult, isa.ClassIntMult},
		{m.IntDiv, isa.ClassIntDiv},
		{m.FPALU, isa.ClassFPALU},
		{m.FPMult, isa.ClassFPMult},
		{m.FPDiv, isa.ClassFPDiv},
		{m.Load, isa.ClassLoad},
		{m.Store, isa.ClassStore},
		{m.Branch, isa.ClassBranch},
		{m.Jump, isa.ClassIntALU}, // jumps appear only as terminators
	}
	var c cumMix
	acc := 0.0
	for i, e := range entries {
		acc += e.f
		c.bounds[i] = acc
		c.classes[i] = e.c
	}
	return c
}

func (c cumMix) sample(r *rng) isa.OpClass {
	x := r.float() * c.bounds[len(c.bounds)-1]
	for i, b := range c.bounds {
		if x < b {
			return c.classes[i]
		}
	}
	return isa.ClassIntALU
}

// builder carries register-rotation state across the whole program build so
// dependency chains can span blocks (loop-carried dependences).
type builder struct {
	prof Profile
	rng  *rng
	cum  cumMix

	intDst isa.Reg // next rotating int destination
	fpDst  isa.Reg // next rotating FP destination

	// recent destination registers, newest last (ring).
	recentInt []isa.Reg
	recentFP  []isa.Reg
}

func (bld *builder) nextIntDst() isa.Reg {
	d := intDstLo + int(bld.intDst)%(intDstHi-intDstLo+1)
	bld.intDst++
	reg := isa.IntReg(d)
	bld.recentInt = append(bld.recentInt, reg)
	if len(bld.recentInt) > 64 {
		bld.recentInt = bld.recentInt[1:]
	}
	return reg
}

func (bld *builder) nextFPDst() isa.Reg {
	d := fpDstLo + int(bld.fpDst)%(fpDstHi-fpDstLo+1)
	bld.fpDst++
	reg := isa.FPReg(d)
	bld.recentFP = append(bld.recentFP, reg)
	if len(bld.recentFP) > 64 {
		bld.recentFP = bld.recentFP[1:]
	}
	return reg
}

// srcInt picks an integer source register at a dependency distance drawn
// from the profile's distance model.
func (bld *builder) srcInt() isa.Reg {
	if len(bld.recentInt) == 0 {
		return isa.IntReg(regGlobal)
	}
	d := bld.depDist()
	if d > len(bld.recentInt) {
		return isa.IntReg(regGlobal)
	}
	return bld.recentInt[len(bld.recentInt)-d]
}

// depDist draws a producer distance. A floor of 3 models the instruction
// scheduling a compiler performs (back-to-back dependences are rare in
// tuned code); the geometric tail gives the chain structure.
func (bld *builder) depDist() int {
	mean := bld.prof.DepDistMean - 3
	if mean < 1 {
		mean = 1
	}
	return 3 + bld.rng.geometric(mean) - 1
}

func (bld *builder) srcFP() isa.Reg {
	if len(bld.recentFP) == 0 {
		return isa.FPReg(fpGlobal)
	}
	d := bld.depDist()
	if d > len(bld.recentFP) {
		return isa.FPReg(fpGlobal)
	}
	return bld.recentFP[len(bld.recentFP)-d]
}

// pickRegion picks the memory region for a memory template.
func (bld *builder) pickRegion() int {
	x := bld.rng.float()
	switch {
	case x < bld.prof.Mem.HotFrac:
		return regionHot
	case x < bld.prof.Mem.HotFrac+bld.prof.Mem.WarmFrac:
		return regionWarm
	default:
		return regionCold
	}
}

var regionBaseReg = [numRegions]int{regionHot: regHotBase, regionWarm: regWarmBase, regionCold: regColdBase}

// classShares lists the mix fractions in cumMix order.
func (bld *builder) classShares() [10]float64 {
	m := bld.prof.Mix
	return [10]float64{m.IntALU, m.IntMult, m.IntDiv, m.FPALU, m.FPMult,
		m.FPDiv, m.Load, m.Store, m.Branch, m.Jump}
}

// blockClasses returns the op classes for one block's interior slots
// (n is the total block length including the terminator). Composition is
// enforced per block by largest-remainder apportionment: every block gets
// the floor of its proportional share of each class, with leftover slots
// going to the largest fractional remainders, and the terminator charged
// against the control share. Because every block is individually
// representative of the mix, the realized dynamic mix matches the profile
// no matter which loop nests the walk concentrates on.
func (bld *builder) blockClasses(n int) []isa.OpClass {
	m := n - 1 // interior slots
	shares := bld.classShares()
	total := 0.0
	for _, f := range shares {
		total += f
	}
	// Budgets over the full block; the terminator consumes one unit of
	// the combined branch+jump budget.
	var budget [9]float64
	for i := 0; i < 8; i++ {
		budget[i] = shares[i] / total * float64(n)
	}
	budget[8] = (shares[8]+shares[9])/total*float64(n) - 1
	if budget[8] < 0 {
		budget[8] = 0
	}
	classOf := [9]isa.OpClass{
		isa.ClassIntALU, isa.ClassIntMult, isa.ClassIntDiv,
		isa.ClassFPALU, isa.ClassFPMult, isa.ClassFPDiv,
		isa.ClassLoad, isa.ClassStore, isa.ClassBranch,
	}
	// Guaranteed floors plus unbiased randomized rounding of the
	// fractional remainders (deterministic remainder ranking would bias
	// the composition of every block the same way).
	var counts [9]int
	used := 0
	for i := 1; i < len(budget); i++ {
		counts[i] = int(budget[i])
		switch {
		case counts[i] == 0 && budget[i] >= 0.5:
			// Deterministic representation: any class with at least half
			// a slot's worth of share appears in every block, so no hot
			// nest can starve it.
			counts[i] = 1
		case bld.rng.float() < budget[i]-float64(counts[i]):
			counts[i]++
		}
		used += counts[i]
	}
	// Integer ALU ops absorb the slack in either direction.
	if used < m {
		counts[0] = m - used
	} else {
		for i := len(budget) - 1; i >= 1 && used > m; i-- {
			for counts[i] > 0 && used > m {
				counts[i]--
				used--
			}
		}
	}
	out := make([]isa.OpClass, 0, m)
	for i, k := range counts {
		for ; k > 0; k-- {
			out = append(out, classOf[i])
		}
	}
	// Fisher-Yates shuffle for intra-block variety.
	for i := len(out) - 1; i > 0; i-- {
		j := bld.rng.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// buildInterior builds one non-terminator instruction template of the
// given class.
func (bld *builder) buildInterior(class isa.OpClass) instTmpl {
	serial := bld.rng.bernoulli(bld.prof.SerialFrac)
	r := bld.rng
	var t instTmpl
	t.serial = serial
	switch class {
	case isa.ClassIntALU:
		ops := []isa.Opcode{isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpSlt, isa.OpAddI}
		op := ops[r.intn(len(ops))]
		in := isa.Inst{Op: op, Src2: isa.NoReg}
		if serial {
			in.Dst = isa.IntReg(regChainInt)
			in.Src1 = isa.IntReg(regChainInt)
		} else {
			in.Src1 = bld.srcInt()
			in.Dst = bld.nextIntDst()
		}
		if op.HasImm() {
			in.Imm = int64(r.intn(1024))
		} else if op.NumSrc() == 2 {
			in.Src2 = bld.srcInt()
		}
		t.inst = in
	case isa.ClassIntMult:
		t.inst = isa.Inst{Op: isa.OpMul, Dst: bld.nextIntDst(), Src1: bld.srcInt(), Src2: bld.srcInt()}
	case isa.ClassIntDiv:
		t.inst = isa.Inst{Op: isa.OpDiv, Dst: bld.nextIntDst(), Src1: bld.srcInt(), Src2: bld.srcInt()}
	case isa.ClassFPALU:
		ops := []isa.Opcode{isa.OpFAdd, isa.OpFSub, isa.OpFAdd}
		op := ops[r.intn(len(ops))]
		in := isa.Inst{Op: op}
		if serial {
			in.Dst = isa.FPReg(fpChain)
			in.Src1 = isa.FPReg(fpChain)
			in.Src2 = bld.srcFP()
		} else {
			in.Dst = bld.nextFPDst()
			in.Src1 = bld.srcFP()
			in.Src2 = bld.srcFP()
		}
		t.inst = in
	case isa.ClassFPMult:
		t.inst = isa.Inst{Op: isa.OpFMul, Dst: bld.nextFPDst(), Src1: bld.srcFP(), Src2: bld.srcFP()}
	case isa.ClassFPDiv:
		t.inst = isa.Inst{Op: isa.OpFDiv, Dst: bld.nextFPDst(), Src1: bld.srcFP(), Src2: bld.srcFP()}
	case isa.ClassLoad:
		t.region = regionDynamic
		base := isa.IntReg(regionBaseReg[bld.pickRegion()])
		chase := bld.prof.Mem.PointerChase &&
			r.bernoulli(bld.prof.Mem.ColdFrac*bld.prof.Mem.ChaseFrac)
		if chase {
			t.region = regionCold
			// Address depends on the previous chased load: the chain reg.
			t.serial = true
			t.inst = isa.Inst{Op: isa.OpLd, Dst: isa.IntReg(regChainInt), Src1: isa.IntReg(regChainInt), Src2: isa.NoReg, Imm: int64(r.intn(256))}
		} else if bld.prof.Class == ClassFP && r.bernoulli(0.6) {
			t.inst = isa.Inst{Op: isa.OpLdF, Dst: bld.nextFPDst(), Src1: base, Src2: isa.NoReg, Imm: int64(r.intn(256))}
		} else {
			t.inst = isa.Inst{Op: isa.OpLd, Dst: bld.nextIntDst(), Src1: base, Src2: isa.NoReg, Imm: int64(r.intn(256))}
		}
	case isa.ClassStore:
		t.region = regionDynamic
		base := isa.IntReg(regionBaseReg[bld.pickRegion()])
		if bld.prof.Class == ClassFP && r.bernoulli(0.6) {
			t.inst = isa.Inst{Op: isa.OpStF, Dst: isa.NoReg, Src1: bld.srcFP(), Src2: base, Imm: int64(r.intn(256))}
		} else {
			t.inst = isa.Inst{Op: isa.OpSt, Dst: isa.NoReg, Src1: bld.srcInt(), Src2: base, Imm: int64(r.intn(256))}
		}
	case isa.ClassBranch:
		// Interior guard branch, never taken at run time.
		t.inst = isa.Inst{Op: isa.OpBeq, Dst: isa.NoReg, Src1: bld.srcInt(), Src2: bld.srcInt(), Imm: 0}
	default:
		t.inst = isa.Inst{Op: isa.OpAdd, Dst: bld.nextIntDst(), Src1: bld.srcInt(), Src2: bld.srcInt()}
	}
	if t.inst.Src1 == 0 && t.inst.Op.NumSrc() >= 1 && !t.inst.Op.FPRegs() {
		// Avoid the hardwired zero register as a source name so renaming
		// sees a real producer.
		t.inst.Src1 = isa.IntReg(regGlobal)
	}
	return t
}

// buildBlock builds one block: interior templates plus a terminator.
func (bld *builder) buildBlock(p Profile, idx, nWalk int, funcs []int, isFunc bool) block {
	r := bld.rng
	n := r.geometric(p.BlockLenMean)
	if n < 10 {
		n = 10
	}
	if n > 30 {
		n = 30
	}
	b := block{insts: make([]instTmpl, 0, n)}
	for _, class := range bld.blockClasses(n) {
		b.insts = append(b.insts, bld.buildInterior(class))
	}

	// Terminator.
	fall := (idx + 1) % nWalk
	if isFunc {
		b.term = termRet
		b.takenIdx = 0 // unused
		b.fallIdx = 0
		b.insts = append(b.insts, instTmpl{inst: isa.Inst{Op: isa.OpRet, Dst: isa.NoReg, Src1: isa.IntReg(isa.RegRA), Src2: isa.NoReg}})
		return b
	}
	b.fallIdx = fall

	// The last walk block cannot fall through (the next address belongs
	// to the function blocks); it must end in an unconditional jump.
	if idx == nWalk-1 {
		b.term = termJump
		b.takenIdx = otherBlock(r, idx, nWalk)
		b.insts = append(b.insts, instTmpl{inst: isa.Inst{Op: isa.OpJmp, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg}})
		return b
	}

	ctrl := p.Mix.Branch + p.Mix.Jump
	jumpProb := 0.0
	if ctrl > 0 {
		jumpProb = p.Mix.Jump / ctrl
	}
	if r.bernoulli(jumpProb) {
		// Unconditional control: call or plain jump.
		if len(funcs) > 0 && r.bernoulli(p.Branch.CallFrac) {
			b.term = termCall
			b.takenIdx = funcs[r.intn(len(funcs))]
			b.insts = append(b.insts, instTmpl{inst: isa.Inst{Op: isa.OpCall, Dst: isa.IntReg(isa.RegRA), Src1: isa.NoReg, Src2: isa.NoReg}})
		} else {
			b.term = termJump
			b.takenIdx = otherBlock(r, idx, nWalk)
			b.insts = append(b.insts, instTmpl{inst: isa.Inst{Op: isa.OpJmp, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg}})
		}
		return b
	}

	// Conditional terminator.
	x := r.float()
	switch {
	case x < p.Branch.LoopFrac:
		b.term = termLoop
		// Loop bodies span one to three blocks: the backward target makes
		// the blocks in between part of the loop body, diluting any one
		// block's dependence chain across a larger body.
		back := r.intn(3)
		if back > idx {
			back = idx
		}
		b.takenIdx = idx - back
		b.loopMean = p.Branch.LoopIterMean
	case x < p.Branch.LoopFrac+p.Branch.BiasedFrac:
		b.term = termBiased
		b.takenIdx = otherBlock(r, idx, nWalk)
	default:
		b.term = termRandom
		b.takenIdx = otherBlock(r, idx, nWalk)
	}
	// Terminator sources: half the sites compare long-lived values (loop
	// counters, bounds) that are ready at fetch; the rest compare recent
	// results, so resolution waits on the dataflow.
	src1, src2 := bld.srcInt(), isa.IntReg(regGlobal)
	if r.bernoulli(0.5) {
		src1 = isa.IntReg(regGlobal)
	}
	ops := []isa.Opcode{isa.OpBne, isa.OpBeq, isa.OpBlt, isa.OpBge}
	b.insts = append(b.insts, instTmpl{inst: isa.Inst{Op: ops[r.intn(len(ops))], Dst: isa.NoReg, Src1: src1, Src2: src2}})
	return b
}

// otherBlock picks a forward-local walk-block target: 1 to span blocks
// ahead of idx (wrapping). Forward-only targets guarantee the walk cannot
// be trapped in a cycle of unconditional jumps (any such cycle would need
// a complete tour of jump-only blocks), and the locality mimics real code
// layout for the I-cache and BTB.
func otherBlock(r *rng, idx, nWalk int) int {
	span := nWalk / 4
	if span < 2 {
		span = 2
	}
	if span > 12 {
		span = 12
	}
	return (idx + 1 + r.intn(span)) % nWalk
}

// Describe returns a short human-readable description of the generated
// program (used by cmd/dcgsim -v).
func (g *Generator) Describe() string {
	return fmt.Sprintf("%s (%s): %d blocks (%d callable), seed %d",
		g.prof.Name, g.prof.Class, len(g.prog.blocks), len(g.prog.funcs), g.prof.Seed)
}
