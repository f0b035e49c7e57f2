package config

import (
	"strings"
	"testing"
)

func TestDefaultMatchesTable1(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if c.IssueWidth != 8 {
		t.Errorf("issue width = %d, want 8", c.IssueWidth)
	}
	if c.WindowSize != 128 {
		t.Errorf("window = %d, want 128", c.WindowSize)
	}
	if c.LSQSize != 64 {
		t.Errorf("LSQ = %d, want 64", c.LSQSize)
	}
	// Section 4.4: 6 integer ALUs are the power/performance optimum.
	if c.FU.IntALU != 6 || c.FU.IntMult != 2 || c.FU.FPALU != 4 || c.FU.FPMult != 4 {
		t.Errorf("FU pool = %+v", c.FU)
	}
	if c.BPred.L1Entries != 8192 || c.BPred.L2Entries != 8192 || c.BPred.HistoryBits != 4 {
		t.Errorf("bpred = %+v", c.BPred)
	}
	if c.BPred.BTBEntries != 8192 || c.BPred.BTBAssoc != 4 || c.BPred.RASEntries != 32 {
		t.Errorf("btb/ras = %+v", c.BPred)
	}
	if c.BPred.MispredictPenaly != 8 {
		t.Errorf("mispredict penalty = %d, want 8", c.BPred.MispredictPenaly)
	}
	if c.DL1.SizeBytes != 64<<10 || c.DL1.Assoc != 2 || c.DL1.HitLatency != 2 {
		t.Errorf("DL1 = %+v", c.DL1)
	}
	if c.L2.SizeBytes != 2<<20 || c.L2.Assoc != 8 || c.L2.HitLatency != 12 {
		t.Errorf("L2 = %+v", c.L2)
	}
	if c.MemLat != 100 {
		t.Errorf("memory latency = %d, want 100", c.MemLat)
	}
	if c.Pipeline.Depth != 8 {
		t.Errorf("depth = %d, want 8", c.Pipeline.Depth)
	}
}

func TestDeepPipeline(t *testing.T) {
	c := Deep()
	if err := c.Validate(); err != nil {
		t.Fatalf("deep config invalid: %v", err)
	}
	if c.Pipeline.Depth != 20 {
		t.Errorf("deep depth = %d, want 20", c.Pipeline.Depth)
	}
	if got := c.TotalLatchStages(); got != 20 {
		t.Errorf("total latch stages = %d, want 20", got)
	}
	// The baseline gatable stages are rename/RF/EX/MEM/WB (5); extra
	// back-end stages add to them.
	if got := c.BackEndLatchStages(); got != 5+c.Pipeline.ExtraBackEnd {
		t.Errorf("back-end stages = %d", got)
	}
}

func TestLatchStageSplitBaseline(t *testing.T) {
	c := Default()
	if c.FrontEndLatchStages() != 3 {
		t.Errorf("front-end latch stages = %d, want 3 (fetch/decode/issue)", c.FrontEndLatchStages())
	}
	if c.BackEndLatchStages() != 5 {
		t.Errorf("back-end latch stages = %d, want 5 (rename/RF/EX/MEM/WB)", c.BackEndLatchStages())
	}
}

func TestCacheGeometry(t *testing.T) {
	c := Default().DL1
	if got := c.Sets(); got != 64<<10/(2*32) {
		t.Errorf("sets = %d", got)
	}
	bad := c
	bad.SizeBytes = 60 << 10 // not divisible
	if bad.Validate() == nil {
		t.Error("invalid cache size accepted")
	}
	bad = c
	bad.Ports = 0
	if bad.Validate() == nil {
		t.Error("zero ports accepted")
	}
	bad = c
	bad.HitLatency = 0
	if bad.Validate() == nil {
		t.Error("zero latency accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.IssueWidth = 0 },
		func(c *Config) { c.WindowSize = 4 },
		func(c *Config) { c.WindowSize = MaxWindowSize + 1 },
		func(c *Config) { c.LSQSize = 0 },
		func(c *Config) { c.OperandWidth = 48 },
		func(c *Config) { c.FU = FUConfig{} },
		func(c *Config) { c.FU.IntALU = MaxPoolUnits + 1 },
		func(c *Config) { c.FU.IntALULat = 0 },
		func(c *Config) { c.MemLat = 0 },
		func(c *Config) { c.Pipeline.Depth = 4 },
		func(c *Config) { c.Pipeline = PipelineConfig{Depth: 20, ExtraFrontEnd: 1, ExtraBackEnd: 1} },
	}
	for i, mut := range mutations {
		c := Default()
		mut(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestStoreDelayString(t *testing.T) {
	if StoreAdvanceKnowledge.String() != "advance" || StoreOneCycleDelay.String() != "delay" {
		t.Error("store delay policy names wrong")
	}
}

// TestValidateBoundsIssueToWriteback: Validate refuses a machine that
// could book a result-bus cycle at or past the scheduling horizon, with
// an error naming the bound. The Table 1 machine sits far inside it.
func TestValidateBoundsIssueToWriteback(t *testing.T) {
	if d := Default().issueToWriteback(); d != 917 {
		t.Errorf("Table 1 issue-to-writeback bound = %d, want 5 + 8*114 = 917", d)
	}
	for name, mut := range map[string]func(*Config){
		"memory latency 9000":        func(c *Config) { c.MemLat = 9000 },
		"memory latency past MaxInt": func(c *Config) { c.MemLat = int(^uint(0) >> 1) },
		"one MSHR, 128-entry LSQ":    func(c *Config) { c.MSHRs, c.LSQSize = 1, 128 },
		"divide latency 8189":        func(c *Config) { c.FU.IntDivLat = SchedHorizon - 3 },
	} {
		c := Default()
		mut(&c)
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), "8192-cycle scheduling horizon (config.SchedHorizon)") {
			t.Errorf("%s: Validate err = %v, want one naming the scheduling horizon", name, err)
		}
	}
	c := Default()
	c.FU.IntDivLat = SchedHorizon - 4
	if d := c.issueToWriteback(); d >= SchedHorizon {
		t.Errorf("divide latency one cycle inside the horizon reaches it: bound %d", d)
	}
}

// TestValidateBoundsFULatency: an FU latency past the reach of the core's
// FU pool ring fails Validate with an error naming the bound, and one at
// the bound passes.
// TestValidateBoundsLatchStages refuses a machine with more back-end
// latch stages than a usage trace holds: such a machine ran live but
// failed its capture.
func TestValidateBoundsLatchStages(t *testing.T) {
	c := Default()
	c.Pipeline = PipelineConfig{Depth: 5008, ExtraBackEnd: 5000}
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "5005 back-end latch stages exceed the 4096") ||
		!strings.Contains(err.Error(), "config.MaxLatchStages") {
		t.Errorf("5000 extra back-end stages: Validate err = %v, want one naming the 4096-stage bound", err)
	}
	c.Pipeline = PipelineConfig{Depth: 4099, ExtraBackEnd: 4091}
	if err := c.Validate(); err != nil || c.BackEndLatchStages() != 4096 {
		t.Errorf("%d back-end stages, at the bound: Validate err = %v", c.BackEndLatchStages(), err)
	}
	c.Pipeline = PipelineConfig{Depth: 4100, ExtraBackEnd: 4092}
	if err := c.Validate(); err == nil {
		t.Error("one back-end stage past the bound passed Validate")
	}
}

// TestValidateBoundsFrontEndStages refuses a machine whose front end is
// deeper than a usage trace's packed view covers, naming the bound, and
// takes one at the bound.
func TestValidateBoundsFrontEndStages(t *testing.T) {
	c := Default()
	c.Pipeline = PipelineConfig{Depth: 8 + 63, ExtraFrontEnd: 63}
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "66 front-end latch stages exceed the 65") ||
		!strings.Contains(err.Error(), "config.MaxFrontEndStages") {
		t.Errorf("63 extra front-end stages: Validate err = %v, want one naming the 65-stage bound", err)
	}
	c.Pipeline = PipelineConfig{Depth: 8 + 62, ExtraFrontEnd: 62}
	if err := c.Validate(); err != nil || c.FrontEndLatchStages() != MaxFrontEndStages {
		t.Errorf("%d front-end stages, at the bound: Validate err = %v", c.FrontEndLatchStages(), err)
	}
	for _, m := range []Config{Default(), Deep()} {
		if n := m.FrontEndLatchStages(); n > MaxFrontEndStages {
			t.Errorf("a shipped machine has %d front-end stages, past the bound", n)
		}
	}
}

func TestValidateBoundsFULatency(t *testing.T) {
	c := Default()
	c.FU.IntDivLat, c.FU.FPDivLat = 200, 200
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "exceeds 126 cycles") ||
		!strings.Contains(err.Error(), "config.MaxFULatency") {
		t.Errorf("divide latency 200: Validate err = %v, want one naming the 126-cycle bound", err)
	}
	c.FU.IntDivLat, c.FU.FPDivLat = MaxFULatency, MaxFULatency
	if err := c.Validate(); err != nil {
		t.Errorf("divide latency at the bound refused: %v", err)
	}
	c.FU.FPALULat = MaxFULatency + 1
	if err := c.Validate(); err == nil {
		t.Error("an FP ALU latency one past the bound passed Validate")
	}
}
