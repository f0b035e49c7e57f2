package config

import "testing"

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
