// Package workload generates deterministic synthetic instruction streams
// that stand in for the paper's Alpha SPEC2000 binaries.
//
// The paper's results depend on *utilisation statistics and their
// cycle-level timing*, not on Alpha program semantics. Each benchmark is
// therefore modelled by a Profile: an operation mix, a dependency-structure
// model, a branch-behaviour model, and a memory-locality model. A static
// "program" of basic blocks is synthesised from the profile, and the
// dynamic stream is produced by walking that program, so the I-cache,
// branch predictor, BTB, RAS and D-cache see realistic, structured access
// patterns and the paper's reported utilisations (section 5.2–5.5) emerge
// from simulation rather than being injected.
//
// Profiles are calibrated against the utilisation figures the paper itself
// reports: integer-unit utilisation ≈35 % (INT) / ≈25 % (FP), FP-unit
// utilisation ≈23 % (FP) / ≈0 (INT), pipeline-latch utilisation ≈60 %,
// D-cache port utilisation ≈40 %, result-bus utilisation ≈40 %, with
// mcf and lucas as high-miss-rate outliers.
package workload

import (
	"fmt"
	"sort"
)

// Class labels a benchmark integer or floating point.
type Class int

const (
	// ClassInt marks a SPECint-like benchmark.
	ClassInt Class = iota
	// ClassFP marks a SPECfp-like benchmark.
	ClassFP
)

func (c Class) String() string {
	if c == ClassFP {
		return "fp"
	}
	return "int"
}

// OpMix is the fraction of dynamic instructions in each class; fields
// should sum to ~1 (Normalize fixes small drift).
type OpMix struct {
	IntALU  float64
	IntMult float64
	IntDiv  float64
	FPALU   float64
	FPMult  float64
	FPDiv   float64
	Load    float64
	Store   float64
	Branch  float64
	Jump    float64
}

// Sum returns the total of all fractions.
func (m OpMix) Sum() float64 {
	return m.IntALU + m.IntMult + m.IntDiv + m.FPALU + m.FPMult + m.FPDiv +
		m.Load + m.Store + m.Branch + m.Jump
}

// Normalize scales the mix to sum to exactly 1.
func (m OpMix) Normalize() OpMix {
	s := m.Sum()
	if s == 0 {
		return OpMix{IntALU: 1}
	}
	return OpMix{
		IntALU: m.IntALU / s, IntMult: m.IntMult / s, IntDiv: m.IntDiv / s,
		FPALU: m.FPALU / s, FPMult: m.FPMult / s, FPDiv: m.FPDiv / s,
		Load: m.Load / s, Store: m.Store / s, Branch: m.Branch / s, Jump: m.Jump / s,
	}
}

// MemMix describes where memory operations land.
// Fractions select a region per memory instruction template:
//
//   - hot: small array resident in L1 (strided, hits after warm-up),
//   - warm: working set resident in L2 but larger than L1,
//   - cold: streaming or pointer-chasing through a region larger than L2.
type MemMix struct {
	HotFrac  float64
	WarmFrac float64
	ColdFrac float64

	HotBytes  uint64
	WarmBytes uint64
	ColdBytes uint64

	// Stride used for hot/warm/cold sequential cursors (bytes).
	Stride uint64

	// PointerChase makes cold accesses jump to PRNG addresses within the
	// cold region (mcf-style), instead of streaming.
	PointerChase bool

	// ChaseFrac is the fraction of cold loads whose address depends on
	// the previous chased load (a true pointer-chase dependence chain).
	// Only meaningful with PointerChase.
	ChaseFrac float64
}

// BranchMix describes terminator behaviour.
type BranchMix struct {
	// LoopFrac / BiasedFrac / RandomFrac select the behaviour class of
	// each conditional-branch site.
	LoopFrac   float64
	BiasedFrac float64
	RandomFrac float64

	// LoopIterMean is the mean trip count of loop branches.
	LoopIterMean float64

	// BiasedTakenProb is the taken probability of biased branches.
	BiasedTakenProb float64

	// CallFrac is the probability a jump site is a call/return pair
	// rather than a plain jump.
	CallFrac float64
}

// Profile fully describes a synthetic benchmark.
type Profile struct {
	Name  string
	Class Class
	Seed  uint64

	Mix    OpMix
	Mem    MemMix
	Branch BranchMix

	// Blocks is the static code footprint in basic blocks; BlockLenMean
	// is the mean instructions per block.
	Blocks       int
	BlockLenMean float64

	// DepDistMean is the mean register dependency distance in
	// instructions: sources reference destinations roughly this many
	// instructions back. Larger means more ILP.
	DepDistMean float64

	// SerialFrac is the fraction of instructions forced into a serial
	// dependence chain (each depends on the previous chain op). Models
	// low-ILP pointer-chasing / recurrence codes.
	SerialFrac float64
}

// MaxBlocks bounds a profile's static code footprint in basic blocks,
// about ten times the largest built-in profile's, so a profile read from
// a file cannot make NewGenerator allocate without bound.
const MaxBlocks = 4096

// Validate checks profile sanity: every fraction and probability in
// [0, 1], the mixes summing to 1, a footprint of at most MaxBlocks
// blocks, and a memory stride that fits every region.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile needs a name")
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Mix.IntALU", p.Mix.IntALU}, {"Mix.IntMult", p.Mix.IntMult}, {"Mix.IntDiv", p.Mix.IntDiv},
		{"Mix.FPALU", p.Mix.FPALU}, {"Mix.FPMult", p.Mix.FPMult}, {"Mix.FPDiv", p.Mix.FPDiv},
		{"Mix.Load", p.Mix.Load}, {"Mix.Store", p.Mix.Store}, {"Mix.Branch", p.Mix.Branch},
		{"Mix.Jump", p.Mix.Jump},
		{"Mem.HotFrac", p.Mem.HotFrac}, {"Mem.WarmFrac", p.Mem.WarmFrac}, {"Mem.ColdFrac", p.Mem.ColdFrac},
		{"Mem.ChaseFrac", p.Mem.ChaseFrac},
		{"Branch.LoopFrac", p.Branch.LoopFrac}, {"Branch.BiasedFrac", p.Branch.BiasedFrac},
		{"Branch.RandomFrac", p.Branch.RandomFrac}, {"Branch.BiasedTakenProb", p.Branch.BiasedTakenProb},
		{"Branch.CallFrac", p.Branch.CallFrac},
	} {
		if !(f.v >= 0 && f.v <= 1) {
			return fmt.Errorf("workload: %s %s = %g outside [0, 1]", p.Name, f.name, f.v)
		}
	}
	if s := p.Mix.Sum(); s < 0.99 || s > 1.01 {
		return fmt.Errorf("workload: %s op mix sums to %.3f, want 1", p.Name, s)
	}
	if p.Blocks < 2 || p.Blocks > MaxBlocks {
		return fmt.Errorf("workload: %s has %d blocks, want 2 to %d (workload.MaxBlocks)", p.Name, p.Blocks, MaxBlocks)
	}
	if p.BlockLenMean < 2 {
		return fmt.Errorf("workload: %s block length mean too small", p.Name)
	}
	if f := p.Mem.HotFrac + p.Mem.WarmFrac + p.Mem.ColdFrac; f < 0.99 || f > 1.01 {
		return fmt.Errorf("workload: %s mem mix sums to %.3f, want 1", p.Name, f)
	}
	if f := p.Branch.LoopFrac + p.Branch.BiasedFrac + p.Branch.RandomFrac; f < 0.99 || f > 1.01 {
		return fmt.Errorf("workload: %s branch mix sums to %.3f, want 1", p.Name, f)
	}
	if p.DepDistMean < 1 {
		return fmt.Errorf("workload: %s dependency distance mean must be >= 1", p.Name)
	}
	if p.SerialFrac < 0 || p.SerialFrac > 1 {
		return fmt.Errorf("workload: %s serial fraction out of [0,1]", p.Name)
	}
	for _, size := range []uint64{p.Mem.HotBytes, p.Mem.WarmBytes, p.Mem.ColdBytes} {
		if size == 0 {
			size = defaultRegionBytes
		}
		if p.Mem.Stride < 1 || p.Mem.Stride > size {
			return fmt.Errorf("workload: %s memory stride %d outside [1, %d], the region's size",
				p.Name, p.Mem.Stride, size)
		}
	}
	return nil
}

// Standard memory geometries.
const (
	kb = uint64(1) << 10
	mb = uint64(1) << 20
)

func intMem(hot, warm, cold float64) MemMix {
	return MemMix{
		HotFrac: hot, WarmFrac: warm, ColdFrac: cold,
		HotBytes: 16 * kb, WarmBytes: 128 * kb, ColdBytes: 64 * mb,
		Stride: 8,
	}
}

func fpMem(hot, warm, cold float64) MemMix {
	return MemMix{
		HotFrac: hot, WarmFrac: warm, ColdFrac: cold,
		HotBytes: 16 * kb, WarmBytes: 192 * kb, ColdBytes: 128 * mb,
		Stride: 8,
	}
}

func easyBranches() BranchMix {
	return BranchMix{LoopFrac: 0.72, BiasedFrac: 0.25, RandomFrac: 0.03,
		LoopIterMean: 48, BiasedTakenProb: 0.95, CallFrac: 0.20}
}

func hardBranches() BranchMix {
	return BranchMix{LoopFrac: 0.60, BiasedFrac: 0.33, RandomFrac: 0.07,
		LoopIterMean: 24, BiasedTakenProb: 0.92, CallFrac: 0.25}
}

func loopyBranches() BranchMix {
	return BranchMix{LoopFrac: 0.85, BiasedFrac: 0.14, RandomFrac: 0.01,
		LoopIterMean: 96, BiasedTakenProb: 0.96, CallFrac: 0.08}
}

// intMix builds a SPECint-like op mix.
func intMix(alu, mul, load, store, branch, jump float64) OpMix {
	return OpMix{IntALU: alu, IntMult: mul, Load: load, Store: store,
		Branch: branch, Jump: jump}.Normalize()
}

// fpMix builds a SPECfp-like op mix.
func fpMix(ialu, fadd, fmul, fdiv, load, store, branch float64) OpMix {
	return OpMix{IntALU: ialu, FPALU: fadd, FPMult: fmul, FPDiv: fdiv,
		Load: load, Store: store, Branch: branch, Jump: 0.01}.Normalize()
}

// Profiles returns the 16 calibrated benchmark profiles (8 SPECint-like,
// 8 SPECfp-like), keyed by name. The parameter values are calibrated so
// the simulated utilisations land near the figures the paper reports
// (sections 5.2-5.5), with mcf and lucas as the high-miss-rate stallers.
func Profiles() map[string]Profile {
	ps := []Profile{
		// ---- SPECint-like ----
		{
			Name: "bzip2", Class: ClassInt, Seed: 101,
			Mix: intMix(0.45, 0.010, 0.170, 0.075, 0.160, 0.025),
			Mem: intMem(0.95, 0.04, 0.01), Branch: easyBranches(),
			Blocks: 96, BlockLenMean: 14, DepDistMean: 16.0, SerialFrac: 0.015,
		},
		{
			Name: "gcc", Class: ClassInt, Seed: 102,
			Mix: intMix(0.45, 0.010, 0.170, 0.075, 0.160, 0.030),
			Mem: intMem(0.93, 0.05, 0.02), Branch: hardBranches(),
			Blocks: 320, BlockLenMean: 14, DepDistMean: 15.0, SerialFrac: 0.030,
		},
		{
			Name: "gzip", Class: ClassInt, Seed: 103,
			Mix: intMix(0.46, 0.010, 0.160, 0.070, 0.160, 0.025),
			Mem: intMem(0.95, 0.04, 0.01), Branch: easyBranches(),
			Blocks: 80, BlockLenMean: 14, DepDistMean: 16.0, SerialFrac: 0.020,
		},
		{
			// mcf: pointer-chasing, unusually high cache miss rate, the
			// paper's best DCG case (frequent stalls).
			Name: "mcf", Class: ClassInt, Seed: 104,
			Mix: intMix(0.42, 0.005, 0.230, 0.070, 0.160, 0.030),
			Mem: func() MemMix {
				m := intMem(0.40, 0.20, 0.40)
				m.PointerChase = true
				m.ChaseFrac = 0.35
				return m
			}(), Branch: hardBranches(),
			Blocks: 128, BlockLenMean: 14, DepDistMean: 11.0, SerialFrac: 0.080,
		},
		{
			Name: "parser", Class: ClassInt, Seed: 105,
			Mix: intMix(0.45, 0.010, 0.170, 0.075, 0.160, 0.030),
			Mem: intMem(0.92, 0.06, 0.02), Branch: hardBranches(),
			Blocks: 256, BlockLenMean: 14, DepDistMean: 14.0, SerialFrac: 0.035,
		},
		{
			Name: "perlbmk", Class: ClassInt, Seed: 106,
			Mix: intMix(0.45, 0.010, 0.170, 0.075, 0.155, 0.030),
			Mem: intMem(0.95, 0.04, 0.01), Branch: easyBranches(),
			Blocks: 384, BlockLenMean: 14, DepDistMean: 16.0, SerialFrac: 0.020,
		},
		{
			Name: "vortex", Class: ClassInt, Seed: 107,
			Mix: intMix(0.45, 0.010, 0.180, 0.080, 0.150, 0.030),
			Mem: intMem(0.93, 0.05, 0.02), Branch: easyBranches(),
			Blocks: 320, BlockLenMean: 14, DepDistMean: 16.0, SerialFrac: 0.020,
		},
		{
			Name: "vpr", Class: ClassInt, Seed: 110,
			Mix: intMix(0.45, 0.010, 0.165, 0.075, 0.160, 0.030),
			Mem: intMem(0.93, 0.05, 0.02), Branch: hardBranches(),
			Blocks: 192, BlockLenMean: 14, DepDistMean: 15.0, SerialFrac: 0.030,
		},

		// ---- SPECfp-like ----
		{
			Name: "ammp", Class: ClassFP, Seed: 201,
			Mix: fpMix(0.36, 0.16, 0.065, 0.004, 0.145, 0.055, 0.140),
			Mem: fpMem(0.92, 0.06, 0.02), Branch: loopyBranches(),
			Blocks: 128, BlockLenMean: 14, DepDistMean: 17.0, SerialFrac: 0.015,
		},
		{
			Name: "applu", Class: ClassFP, Seed: 202,
			Mix: fpMix(0.35, 0.17, 0.070, 0.004, 0.140, 0.055, 0.140),
			Mem: fpMem(0.90, 0.08, 0.02), Branch: loopyBranches(),
			Blocks: 96, BlockLenMean: 14, DepDistMean: 18.0, SerialFrac: 0.010,
		},
		{
			Name: "art", Class: ClassFP, Seed: 203,
			Mix: fpMix(0.35, 0.17, 0.065, 0.000, 0.145, 0.055, 0.140),
			Mem: fpMem(0.82, 0.13, 0.05), Branch: loopyBranches(),
			Blocks: 64, BlockLenMean: 14, DepDistMean: 16.0, SerialFrac: 0.020,
		},
		{
			Name: "equake", Class: ClassFP, Seed: 204,
			Mix: fpMix(0.36, 0.16, 0.065, 0.004, 0.145, 0.055, 0.140),
			Mem: fpMem(0.88, 0.09, 0.03), Branch: loopyBranches(),
			Blocks: 96, BlockLenMean: 14, DepDistMean: 17.0, SerialFrac: 0.015,
		},
		{
			// lucas: frequent stalls from very high miss rates; the
			// paper's other standout DCG case.
			Name: "lucas", Class: ClassFP, Seed: 205,
			Mix: fpMix(0.32, 0.17, 0.075, 0.004, 0.155, 0.055, 0.125),
			Mem: func() MemMix {
				m := fpMem(0.30, 0.20, 0.50)
				m.Stride = 64 // large-stride streaming: misses nearly every line
				return m
			}(), Branch: loopyBranches(),
			Blocks: 48, BlockLenMean: 14, DepDistMean: 13.0, SerialFrac: 0.060,
		},
		{
			Name: "mesa", Class: ClassFP, Seed: 206,
			Mix: fpMix(0.38, 0.15, 0.060, 0.004, 0.135, 0.055, 0.140),
			Mem: fpMem(0.93, 0.05, 0.02), Branch: easyBranches(),
			Blocks: 256, BlockLenMean: 14, DepDistMean: 17.0, SerialFrac: 0.015,
		},
		{
			Name: "mgrid", Class: ClassFP, Seed: 207,
			Mix: fpMix(0.34, 0.18, 0.075, 0.000, 0.135, 0.055, 0.140),
			Mem: fpMem(0.90, 0.08, 0.02), Branch: loopyBranches(),
			Blocks: 64, BlockLenMean: 14, DepDistMean: 19.0, SerialFrac: 0.010,
		},
		{
			Name: "swim", Class: ClassFP, Seed: 208,
			Mix: fpMix(0.34, 0.17, 0.070, 0.000, 0.140, 0.055, 0.145),
			Mem: fpMem(0.86, 0.10, 0.04), Branch: loopyBranches(),
			Blocks: 56, BlockLenMean: 14, DepDistMean: 18.0, SerialFrac: 0.010,
		},
	}
	m := make(map[string]Profile, len(ps))
	for _, p := range ps {
		m[p.Name] = p
	}
	return m
}

// Names returns all benchmark names, integer suite first, each suite sorted.
func Names() []string {
	var ints, fps []string
	for name, p := range Profiles() {
		if p.Class == ClassInt {
			ints = append(ints, name)
		} else {
			fps = append(fps, name)
		}
	}
	sort.Strings(ints)
	sort.Strings(fps)
	return append(ints, fps...)
}

// IntNames returns the integer benchmark names, sorted.
func IntNames() []string {
	var out []string
	for name, p := range Profiles() {
		if p.Class == ClassInt {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// FPNames returns the floating-point benchmark names, sorted.
func FPNames() []string {
	var out []string
	for name, p := range Profiles() {
		if p.Class == ClassFP {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// ByName returns the profile for a benchmark name.
func ByName(name string) (Profile, bool) {
	p, ok := Profiles()[name]
	return p, ok
}
