// Package config defines the processor configuration, mirroring Table 1 of
// the paper and the pipeline-depth variants of section 5.6.
package config

import "fmt"

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name       string
	SizeBytes  int
	Assoc      int
	LineBytes  int
	HitLatency int // cycles
	Ports      int // simultaneous accesses per cycle
}

// Sets returns the number of sets implied by size/assoc/line.
func (c CacheConfig) Sets() int {
	denom := c.Assoc * c.LineBytes
	if denom == 0 {
		return 0
	}
	return c.SizeBytes / denom
}

// Validate checks structural sanity of the cache geometry.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("config: cache %s has non-positive geometry", c.Name)
	}
	if c.SizeBytes%(c.Assoc*c.LineBytes) != 0 {
		return fmt.Errorf("config: cache %s size %d not divisible by assoc*line", c.Name, c.SizeBytes)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("config: cache %s set count %d not a power of two", c.Name, s)
	}
	if c.HitLatency < 1 {
		return fmt.Errorf("config: cache %s hit latency must be >= 1", c.Name)
	}
	if c.Ports < 1 {
		return fmt.Errorf("config: cache %s needs at least one port", c.Name)
	}
	return nil
}

// BPredKind selects the direction predictor implementation.
type BPredKind int

const (
	// BPredTwoLevel is the paper's Table 1 predictor.
	BPredTwoLevel BPredKind = iota
	// BPredBimodal is a classic 2-bit-counter table (for predictor
	// sensitivity studies).
	BPredBimodal
)

func (k BPredKind) String() string {
	if k == BPredBimodal {
		return "bimodal"
	}
	return "2-level"
}

// BPredConfig describes the branch prediction machinery (Table 1: 2-level,
// 8192+8192 entries, 4-bit history, 32-entry RAS, 8192-entry 4-way BTB,
// 8-cycle mispredict penalty).
type BPredConfig struct {
	Kind             BPredKind
	L1Entries        int // first-level (history) table entries
	L2Entries        int // second-level (pattern/counter) table entries
	HistoryBits      int
	BTBEntries       int
	BTBAssoc         int
	RASEntries       int
	MispredictPenaly int // extra front-end redirect cycles
}

// FUConfig describes the functional unit pool (Table 1: 6 integer ALUs,
// 2 integer multiply/divide, 4 FP ALUs, 4 FP multiply/divide).
type FUConfig struct {
	IntALU  int
	IntMult int // shared multiply/divide units
	FPALU   int
	FPMult  int // shared FP multiply/divide units

	// Operation latencies (cycles, fully pipelined unless Init < Lat).
	IntALULat  int
	IntMultLat int
	IntDivLat  int
	FPALULat   int
	FPMultLat  int
	FPDivLat   int
}

// Total returns the total number of execution units.
func (f FUConfig) Total() int { return f.IntALU + f.IntMult + f.FPALU + f.FPMult }

// MaxPoolUnits bounds each functional unit pool: the core tracks a pool's
// busy units as a 32-bit mask per cycle.
const MaxPoolUnits = 32

// PipelineConfig describes stage structure. The paper's baseline is the
// 8-stage pipeline of Figure 3 (fetch, decode, rename, issue, regread,
// execute, memory, writeback); section 5.6 studies a 20-stage variant where
// extra stages are added to existing steps.
type PipelineConfig struct {
	// Depth is the total number of stages (8 for baseline, 20 for the
	// deep-pipeline study). Extra stages beyond 8 are distributed by
	// ExtraFrontEnd/ExtraBackEnd.
	Depth int

	// ExtraFrontEnd is the number of additional latch stages before and
	// including issue (fetch/decode/rename/issue lengthening). Latches in
	// these stages are NOT gatable by DCG (no advance information).
	ExtraFrontEnd int

	// ExtraBackEnd is the number of additional latch stages after issue
	// (regread/execute/memory/writeback lengthening). These latches ARE
	// gatable by DCG.
	ExtraBackEnd int
}

// BaseStages is the number of stages in the paper's baseline pipeline.
const BaseStages = 8

// Validate checks the stage arithmetic.
func (p PipelineConfig) Validate() error {
	if p.Depth < BaseStages {
		return fmt.Errorf("config: pipeline depth %d < base %d", p.Depth, BaseStages)
	}
	if p.ExtraFrontEnd < 0 || p.ExtraBackEnd < 0 {
		return fmt.Errorf("config: negative extra stage counts")
	}
	if BaseStages+p.ExtraFrontEnd+p.ExtraBackEnd != p.Depth {
		return fmt.Errorf("config: depth %d != base %d + front %d + back %d",
			p.Depth, BaseStages, p.ExtraFrontEnd, p.ExtraBackEnd)
	}
	return nil
}

// Config is the full processor configuration.
type Config struct {
	// IssueWidth is the machine width (fetch/decode/rename/issue/commit
	// width). Table 1: 8-way issue.
	IssueWidth int

	// WindowSize is the instruction window / ROB size (Table 1: 128).
	WindowSize int

	// LSQSize is the load/store queue size (Table 1: 64).
	LSQSize int

	// OperandWidth is the datapath width in bits (64, per section 3.2's
	// 8 x 2 x 64 latch sizing example).
	OperandWidth int

	FU     FUConfig
	BPred  BPredConfig
	IL1    CacheConfig
	DL1    CacheConfig
	L2     CacheConfig
	MemLat int // main memory latency, cycles (Table 1: 100)

	// MSHRs bounds the D-cache's outstanding misses (memory-level
	// parallelism); further misses queue. sim-outorder-style cores are
	// commonly configured with 8.
	MSHRs int

	Pipeline PipelineConfig

	// FUSelection is the execution-unit selection policy (section 3.1).
	FUSelection FUSelection

	// PerfectBPred makes every control-flow prediction correct (an
	// oracle front end), used to ablate how much of DCG's opportunity
	// comes from misprediction stalls.
	PerfectBPred bool

	// StoreDelayPolicy selects how DCG handles stores whose D-cache access
	// timing is not pre-determinable (section 3.3): "advance" assumes the
	// LSQ exposes the access one cycle ahead (possibility 1), "delay"
	// delays the store one cycle to set up the clock-gate control
	// (possibility 2).
	StoreDelayPolicy StoreDelay
}

// FUSelection selects the execution-unit selection policy.
type FUSelection int

const (
	// SelectSequential is the paper's section 3.1 policy: statically
	// prioritised units, lowest-index free unit first, so low-index units
	// stay ungated and high-index units stay gated — minimising
	// clock-gate control toggling and di/dt noise.
	SelectSequential FUSelection = iota
	// SelectRoundRobin rotates the starting unit each grant; used by the
	// ablation study to quantify what sequential priority buys.
	SelectRoundRobin
)

func (f FUSelection) String() string {
	if f == SelectRoundRobin {
		return "round-robin"
	}
	return "sequential"
}

// StoreDelay enumerates the section 3.3 store handling options.
type StoreDelay int

const (
	// StoreAdvanceKnowledge: the LSQ exposes an upcoming store access one
	// cycle early; no delay needed.
	StoreAdvanceKnowledge StoreDelay = iota
	// StoreOneCycleDelay: stores are delayed one cycle so clock-gate
	// control can be set up.
	StoreOneCycleDelay
)

func (s StoreDelay) String() string {
	if s == StoreOneCycleDelay {
		return "delay"
	}
	return "advance"
}

// Default returns the paper's Table 1 baseline configuration.
func Default() Config {
	return Config{
		IssueWidth:   8,
		WindowSize:   128,
		LSQSize:      64,
		OperandWidth: 64,
		FU: FUConfig{
			IntALU:  6, // section 4.4: 6 integer ALUs is power/perf optimal
			IntMult: 2,
			FPALU:   4,
			FPMult:  4,

			IntALULat:  1,
			IntMultLat: 3,
			IntDivLat:  20,
			FPALULat:   2,
			FPMultLat:  4,
			FPDivLat:   12,
		},
		BPred: BPredConfig{
			L1Entries:        8192,
			L2Entries:        8192,
			HistoryBits:      4,
			BTBEntries:       8192,
			BTBAssoc:         4,
			RASEntries:       32,
			MispredictPenaly: 8,
		},
		IL1:    CacheConfig{Name: "il1", SizeBytes: 64 << 10, Assoc: 2, LineBytes: 32, HitLatency: 2, Ports: 1},
		DL1:    CacheConfig{Name: "dl1", SizeBytes: 64 << 10, Assoc: 2, LineBytes: 32, HitLatency: 2, Ports: 2},
		L2:     CacheConfig{Name: "l2", SizeBytes: 2 << 20, Assoc: 8, LineBytes: 64, HitLatency: 12, Ports: 1},
		MemLat: 100,
		MSHRs:  8,
		Pipeline: PipelineConfig{
			Depth: 8,
		},
		StoreDelayPolicy: StoreAdvanceKnowledge,
	}
}

// Deep returns the 20-stage deep-pipeline configuration of section 5.6.
// Twelve extra stages are added; following the paper's observation that new
// stages for any step except fetch, decode or issue are gatable, we lengthen
// the front end by 4 (fetch/decode/issue lengthening, not gatable) and the
// back end by 8 (regread/execute/memory/writeback lengthening, gatable).
func Deep() Config {
	c := Default()
	c.Pipeline = PipelineConfig{Depth: 20, ExtraFrontEnd: 4, ExtraBackEnd: 8}
	// Deeper pipe means a larger mispredict penalty.
	c.BPred.MispredictPenaly = 14
	return c
}

// Validate checks the whole configuration.
func (c Config) Validate() error {
	if c.IssueWidth < 1 || c.IssueWidth > 64 {
		return fmt.Errorf("config: issue width %d out of range", c.IssueWidth)
	}
	if c.WindowSize < c.IssueWidth {
		return fmt.Errorf("config: window %d smaller than issue width %d", c.WindowSize, c.IssueWidth)
	}
	if c.LSQSize < 1 {
		return fmt.Errorf("config: LSQ size must be positive")
	}
	if c.OperandWidth != 32 && c.OperandWidth != 64 {
		return fmt.Errorf("config: operand width %d unsupported", c.OperandWidth)
	}
	if c.FU.Total() < 1 {
		return fmt.Errorf("config: no functional units")
	}
	for _, n := range []int{c.FU.IntALU, c.FU.IntMult, c.FU.FPALU, c.FU.FPMult} {
		if n < 0 || n > MaxPoolUnits {
			return fmt.Errorf("config: functional unit pool of %d units out of range [0, %d]", n, MaxPoolUnits)
		}
	}
	if c.FU.IntALULat < 1 || c.FU.IntMultLat < 1 || c.FU.IntDivLat < 1 ||
		c.FU.FPALULat < 1 || c.FU.FPMultLat < 1 || c.FU.FPDivLat < 1 {
		return fmt.Errorf("config: functional unit latencies must be >= 1")
	}
	for _, cc := range []CacheConfig{c.IL1, c.DL1, c.L2} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	if c.MemLat < 1 {
		return fmt.Errorf("config: memory latency must be >= 1")
	}
	if c.MSHRs < 1 {
		return fmt.Errorf("config: need at least one MSHR")
	}
	if err := c.Pipeline.Validate(); err != nil {
		return err
	}
	return nil
}

// BackEndLatchStages returns the number of gatable latch stages: the
// baseline gatable latches are rename, regread, execute, memory, writeback
// (section 2.2.1) plus any extra back-end stages.
func (c Config) BackEndLatchStages() int {
	return 5 + c.Pipeline.ExtraBackEnd
}

// FrontEndLatchStages returns the number of non-gatable latch stages
// (fetch, decode, issue boundaries in the baseline, plus extra front-end
// stages).
func (c Config) FrontEndLatchStages() int {
	return 3 + c.Pipeline.ExtraFrontEnd
}

// TotalLatchStages returns the total pipeline latch stage count.
func (c Config) TotalLatchStages() int {
	return c.FrontEndLatchStages() + c.BackEndLatchStages()
}
