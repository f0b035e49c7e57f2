package cpu

import (
	"testing"

	"dcg/internal/config"
	"dcg/internal/isa"
	"dcg/internal/trace"
	"dcg/internal/workload"
)

// straightLine builds n instructions of the given opcode with no
// dependences (all read the long-lived r24), rotating destinations.
func straightLine(n int, op isa.Opcode) []trace.DynInst {
	out := make([]trace.DynInst, 0, n)
	for i := 0; i < n; i++ {
		in := isa.Inst{Op: op, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg}
		if op.HasDst() {
			if op.FPRegs() {
				in.Dst = isa.FPReg(i % 20)
			} else {
				in.Dst = isa.IntReg(1 + i%20)
			}
		}
		if op.NumSrc() >= 1 {
			in.Src1 = isa.IntReg(24)
			if op.FPRegs() {
				in.Src1 = isa.FPReg(24)
			}
		}
		if op.NumSrc() >= 2 {
			in.Src2 = isa.IntReg(25)
			if op.FPRegs() {
				in.Src2 = isa.FPReg(25)
			}
		}
		if op.HasImm() {
			in.Imm = 8
		}
		// PCs loop over a small footprint so the I-cache stays warm.
		d := trace.DynInst{PC: 0x40_0000 + uint64(i%64)*4, Seq: uint64(i), Inst: in}
		if in.Class().IsMem() {
			d.EA = 0x1000_0000 + uint64(i%64)*8 // small, hot region
		}
		out = append(out, d)
	}
	return out
}

// runCore simulates the stream to completion and returns the core.
func runCore(t *testing.T, cfg config.Config, insts []trace.DynInst) *Core {
	t.Helper()
	c, err := New(cfg, trace.NewSliceSource("unit", insts))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAllInstructionsCommit(t *testing.T) {
	insts := straightLine(5000, isa.OpAddI)
	c := runCore(t, config.Default(), insts)
	if got := c.Stats().Committed; got != 5000 {
		t.Fatalf("committed %d, want 5000", got)
	}
}

func TestIndependentALUThroughput(t *testing.T) {
	// 6 integer ALUs bound independent ALU work at 6 IPC once the code is
	// cache-resident; cold I-misses eat into short runs, so check a
	// conservative floor and the unit-bound ceiling.
	insts := straightLine(30000, isa.OpAddI)
	c := runCore(t, config.Default(), insts)
	ipc := c.Stats().IPC()
	if ipc > 6.001 {
		t.Fatalf("IPC %.2f exceeds the 6-ALU bound", ipc)
	}
	if ipc < 3.0 {
		t.Fatalf("IPC %.2f too low for independent ALU work", ipc)
	}
}

func TestSerialChainRunsAtOnePerCycle(t *testing.T) {
	// r1 <- r1 + 1 chains: back-to-back scheduling gives exactly one
	// instruction per cycle in steady state.
	n := 20000
	insts := make([]trace.DynInst, 0, n)
	for i := 0; i < n; i++ {
		insts = append(insts, trace.DynInst{
			PC: 0x40_0000, Seq: uint64(i),
			Inst: isa.Inst{Op: isa.OpAddI, Dst: isa.IntReg(1), Src1: isa.IntReg(1), Src2: isa.NoReg, Imm: 1},
		})
	}
	c := runCore(t, config.Default(), insts)
	ipc := c.Stats().IPC()
	if ipc > 1.001 {
		t.Fatalf("dependence chain IPC %.3f > 1", ipc)
	}
	if ipc < 0.9 {
		t.Fatalf("dependence chain IPC %.3f; back-to-back scheduling broken", ipc)
	}
}

func TestMultiplierLatencyChain(t *testing.T) {
	// A mul chain (latency 3) runs at 1/3 IPC.
	n := 9000
	insts := make([]trace.DynInst, 0, n)
	for i := 0; i < n; i++ {
		insts = append(insts, trace.DynInst{
			PC: 0x40_0000, Seq: uint64(i),
			Inst: isa.Inst{Op: isa.OpMul, Dst: isa.IntReg(1), Src1: isa.IntReg(1), Src2: isa.IntReg(24)},
		})
	}
	c := runCore(t, config.Default(), insts)
	ipc := c.Stats().IPC()
	want := 1.0 / float64(config.Default().FU.IntMultLat)
	if ipc > want*1.02 || ipc < want*0.9 {
		t.Fatalf("mul chain IPC %.3f, want ~%.3f", ipc, want)
	}
}

func TestDPortStructuralLimit(t *testing.T) {
	// Independent loads are bounded by the two D-cache ports.
	insts := straightLine(20000, isa.OpLd)
	c := runCore(t, config.Default(), insts)
	ipc := c.Stats().IPC()
	if ipc > 2.001 {
		t.Fatalf("load IPC %.2f exceeds the 2-port bound", ipc)
	}
	if ipc < 1.5 {
		t.Fatalf("load IPC %.2f too low for independent hot loads", ipc)
	}
}

func TestIntMultPoolLimit(t *testing.T) {
	// Independent 3-cycle muls on 2 units: bound = 2/3 IPC.
	insts := straightLine(24000, isa.OpMul)
	c := runCore(t, config.Default(), insts)
	ipc := c.Stats().IPC()
	bound := 2.0 / 3.0
	if ipc > bound*1.02 {
		t.Fatalf("mul IPC %.3f exceeds pool bound %.3f", ipc, bound)
	}
	if ipc < bound*0.85 {
		t.Fatalf("mul IPC %.3f too far below pool bound %.3f", ipc, bound)
	}
}

func TestSequentialPriorityPolicy(t *testing.T) {
	// Section 3.1: among same-type units, the lowest-index free unit is
	// always chosen, so with a serial one-op-at-a-time stream only unit 0
	// is ever used.
	n := 5000
	insts := make([]trace.DynInst, 0, n)
	for i := 0; i < n; i++ {
		insts = append(insts, trace.DynInst{
			PC: 0x40_0000, Seq: uint64(i),
			Inst: isa.Inst{Op: isa.OpAddI, Dst: isa.IntReg(1), Src1: isa.IntReg(1), Src2: isa.NoReg, Imm: 1},
		})
	}
	src := trace.NewSliceSource("unit", insts)
	c, err := New(config.Default(), src)
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	c.SetObserver(observerFunc(func(u *Usage) {
		if u.IntALUBusy&^1 != 0 {
			bad++
		}
	}))
	if _, err := c.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("higher-priority-free violation on %d cycles", bad)
	}
}

// observerFunc adapts a function to Observer.
type observerFunc func(*Usage)

func (f observerFunc) OnCycle(u *Usage) { f(u) }

func TestLatchFlowsAreDelayedIssueCounts(t *testing.T) {
	insts := straightLine(8000, isa.OpAddI)
	src := trace.NewSliceSource("unit", insts)
	c, err := New(config.Default(), src)
	if err != nil {
		t.Fatal(err)
	}
	var issueHist []int
	errors := 0
	c.SetObserver(observerFunc(func(u *Usage) {
		issueHist = append(issueHist, u.IssueCount)
		for s := 1; s < len(u.BackLatch); s++ {
			idx := len(issueHist) - 1 - s
			want := 0
			if idx >= 0 {
				want = issueHist[idx]
			}
			if u.BackLatch[s] != want {
				errors++
			}
		}
	}))
	if _, err := c.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if errors != 0 {
		t.Fatalf("latch flow mismatch on %d stage-cycles", errors)
	}
}

func TestUsageBounds(t *testing.T) {
	cfg := config.Default()
	insts := straightLine(10000, isa.OpLd)
	src := trace.NewSliceSource("unit", insts)
	c, err := New(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	violations := 0
	c.SetObserver(observerFunc(func(u *Usage) {
		if u.IssueCount > cfg.IssueWidth || u.DPortUsed > cfg.DL1.Ports ||
			u.ResultBus > cfg.IssueWidth || u.CommitCount > cfg.IssueWidth {
			violations++
		}
		for _, f := range u.BackLatch {
			if f > cfg.IssueWidth {
				violations++
			}
		}
	}))
	if _, err := c.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Fatalf("usage bound violations: %d", violations)
	}
}

func TestThrottleWidthCapsIssue(t *testing.T) {
	cfg := config.Default()
	insts := straightLine(20000, isa.OpAddI)
	src := trace.NewSliceSource("unit", insts)
	c, err := New(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	lim := FullLimits(cfg.IssueWidth, cfg.DL1.Ports, cfg.FU.IntALU, cfg.FU.IntMult, cfg.FU.FPALU, cfg.FU.FPMult)
	lim.IssueWidth = 2
	c.SetThrottle(NewFixedThrottle(lim))
	over := 0
	c.SetObserver(observerFunc(func(u *Usage) {
		if u.IssueCount > 2 {
			over++
		}
	}))
	if _, err := c.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if over != 0 {
		t.Fatalf("issue width throttle violated on %d cycles", over)
	}
	if ipc := c.Stats().IPC(); ipc > 2.001 {
		t.Fatalf("IPC %.2f above throttled width", ipc)
	}
}

func TestThrottleDisablesHighUnits(t *testing.T) {
	cfg := config.Default()
	insts := straightLine(20000, isa.OpAddI)
	src := trace.NewSliceSource("unit", insts)
	c, err := New(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	lim := FullLimits(cfg.IssueWidth, cfg.DL1.Ports, cfg.FU.IntALU, cfg.FU.IntMult, cfg.FU.FPALU, cfg.FU.FPMult)
	lim.IntALU = 3 // disable the top three ALUs
	c.SetThrottle(NewFixedThrottle(lim))
	bad := 0
	c.SetObserver(observerFunc(func(u *Usage) {
		if u.IntALUBusy&^0b111 != 0 {
			bad++
		}
	}))
	if _, err := c.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("disabled units used on %d cycles", bad)
	}
	if ipc := c.Stats().IPC(); ipc > 3.001 {
		t.Fatalf("IPC %.2f above 3-ALU bound", ipc)
	}
}

func TestIssueEventTimingContract(t *testing.T) {
	// Figure 6: selected at X -> execute at X+2; loads use the D-cache at
	// X+3; every schedule field refers to a strictly future cycle.
	p, insts := 0, straightLine(5000, isa.OpLd)
	_ = p
	src := trace.NewSliceSource("unit", insts)
	c, err := New(config.Default(), src)
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	c.SetIssueListener(listenerFunc(func(ev IssueEvent) {
		if ev.FUIdx >= 0 && ev.FUStart != ev.Cycle+2 {
			bad++
		}
		if (ev.IsLoad || ev.IsStore) && ev.DPortCycle != ev.Cycle+3 {
			bad++
		}
		if ev.WritesReg && ev.ResultBusCycle <= ev.Cycle {
			bad++
		}
	}))
	if _, err := c.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("issue-event timing contract violated %d times", bad)
	}
}

type listenerFunc func(IssueEvent)

func (f listenerFunc) OnIssue(ev IssueEvent) { f(ev) }

func TestStoreDelayPolicy(t *testing.T) {
	// Section 3.3 possibility 2: stores access the cache one cycle later.
	mk := func(policy config.StoreDelay) uint64 {
		cfg := config.Default()
		cfg.StoreDelayPolicy = policy
		insts := straightLine(2000, isa.OpSt)
		src := trace.NewSliceSource("unit", insts)
		c, err := New(cfg, src)
		if err != nil {
			t.Fatal(err)
		}
		var firstPort uint64
		c.SetIssueListener(listenerFunc(func(ev IssueEvent) {
			if ev.IsStore && firstPort == 0 {
				firstPort = ev.DPortCycle - ev.Cycle
			}
		}))
		if _, err := c.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
		return firstPort
	}
	if got := mk(config.StoreAdvanceKnowledge); got != 3 {
		t.Errorf("advance-knowledge store port delay = %d, want 3", got)
	}
	if got := mk(config.StoreOneCycleDelay); got != 4 {
		t.Errorf("delayed store port delay = %d, want 4", got)
	}
}

func TestMispredictStallsFetch(t *testing.T) {
	// A stream of hard-to-predict branches must run far slower than the
	// same volume of predictable work.
	n := 4000
	mk := func(taken func(i int) bool) float64 {
		insts := make([]trace.DynInst, 0, n)
		for i := 0; i < n; i++ {
			d := trace.DynInst{
				PC: 0x40_0000 + uint64(i%100)*4, Seq: uint64(i),
				Inst: isa.Inst{Op: isa.OpBne, Dst: isa.NoReg, Src1: isa.IntReg(24), Src2: isa.IntReg(25)},
			}
			d.Taken = taken(i)
			if d.Taken {
				d.Target = 0x40_0000 + uint64((i+1)%100)*4
			} else {
				d.Target = d.PC + 4
			}
			// Keep the path coherent: next PC must match.
			insts = append(insts, d)
		}
		// Fix up PCs to follow the actual path.
		pc := uint64(0x40_0000)
		for i := range insts {
			insts[i].PC = pc
			if insts[i].Taken {
				insts[i].Target = pc + 64
				pc += 64
			} else {
				insts[i].Target = pc + 4
				pc += 4
			}
		}
		c := runCore(t, config.Default(), insts)
		return c.Stats().IPC()
	}
	predictable := mk(func(i int) bool { return false })
	alternating := mk(func(i int) bool { return i%2 == 0 })
	// The 2-level predictor learns the alternating pattern; pseudo-random
	// outcomes defeat it.
	random := mk(func(i int) bool { return (i*2654435761)>>16&1 == 1 })
	if random >= predictable*0.7 {
		t.Errorf("random branches IPC %.2f not clearly below predictable %.2f", random, predictable)
	}
	if alternating < random {
		t.Errorf("learnable pattern IPC %.2f below random %.2f", alternating, random)
	}
}

func TestROBWindowLimit(t *testing.T) {
	// A load that misses to memory at the window head must stall commit;
	// the window bounds how much younger work can proceed.
	cfg := config.Default()
	var insts []trace.DynInst
	seq := uint64(0)
	// One cold miss, then a long run of independent ALU ops.
	insts = append(insts, trace.DynInst{
		PC: 0x40_0000, Seq: seq,
		Inst: isa.Inst{Op: isa.OpLd, Dst: isa.IntReg(1), Src1: isa.IntReg(24), Src2: isa.NoReg},
		EA:   0x7000_0000,
	})
	seq++
	for i := 0; i < 1000; i++ {
		insts = append(insts, trace.DynInst{
			PC: 0x40_0004 + uint64(i%100)*4, Seq: seq,
			Inst: isa.Inst{Op: isa.OpAddI, Dst: isa.IntReg(2 + i%20), Src1: isa.IntReg(24), Src2: isa.NoReg, Imm: 1},
		})
		seq++
	}
	c := runCore(t, cfg, insts)
	st := c.Stats()
	if st.RobFullStall == 0 {
		t.Error("expected window-full stalls behind a memory-miss head")
	}
	if st.Committed != uint64(len(insts)) {
		t.Errorf("committed %d of %d", st.Committed, len(insts))
	}
}

func TestDeepPipelineRuns(t *testing.T) {
	insts := straightLine(10000, isa.OpAddI)
	c := runCore(t, config.Deep(), insts)
	if c.Stats().Committed != 10000 {
		t.Fatal("deep pipeline lost instructions")
	}
	if got := len(c.usage.BackLatch); got != config.Deep().BackEndLatchStages() {
		t.Fatalf("deep pipeline latch stages = %d", got)
	}
}

func TestCycleLimitError(t *testing.T) {
	insts := straightLine(100000, isa.OpAddI)
	src := trace.NewSliceSource("unit", insts)
	c, err := New(config.Default(), src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(10); err == nil {
		t.Fatal("cycle limit not reported")
	}
}

func TestWarmResetsStats(t *testing.T) {
	insts := straightLine(10000, isa.OpLd)
	warmSrc := trace.NewSliceSource("warm", insts)
	c, err := New(config.Default(), trace.NewSliceSource("unit", insts))
	if err != nil {
		t.Fatal(err)
	}
	c.Warm(warmSrc, 5000)
	if c.Stats().Committed != 0 || c.Stats().Fetched != 0 {
		t.Fatal("Warm left statistics behind")
	}
	if c.Hierarchy().DL1.Accesses != 0 {
		t.Fatal("Warm left cache statistics behind")
	}
	// But the cache contents are warm: re-running the same addresses hits.
	if _, err := c.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if mr := c.Hierarchy().DL1.MissRate(); mr > 0.05 {
		t.Errorf("post-warm miss rate %.2f; warm-up did not stick", mr)
	}
}

// TestRestoreMatchesWarm: a core restored from a warmed core's caches and
// predictor runs exactly as the warmed core does; Warm reports how many
// instructions it streamed.
func TestRestoreMatchesWarm(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	gen := workload.MustGenerator(prof)
	warmed, err := New(config.Default(), trace.NewLimitSource(gen, 20_000))
	if err != nil {
		t.Fatal(err)
	}
	if n := warmed.Warm(trace.NewLimitSource(gen, 30_000), 40_000); n != 30_000 {
		t.Fatalf("Warm of a 30k-instruction source streamed %d", n)
	}
	restored, err := New(config.Default(), trace.NewLimitSource(gen.Clone(), 20_000))
	if err != nil {
		t.Fatal(err)
	}
	restored.Restore(warmed.Hierarchy().Clone(), warmed.Predictor().Clone())
	for _, c := range []*Core{warmed, restored} {
		if _, err := c.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	if *warmed.Stats() != *restored.Stats() {
		t.Errorf("restored core's statistics differ:\n%+v\n%+v", *restored.Stats(), *warmed.Stats())
	}
	if warmed.Hierarchy().L2.Misses != restored.Hierarchy().L2.Misses ||
		warmed.Predictor().CondCorrect != restored.Predictor().CondCorrect {
		t.Error("restored core's caches or predictor diverged")
	}
	if n := restored.Warm(trace.NewLimitSource(gen, 30_000), 5_000); n != 5_000 {
		t.Errorf("Warm bounded at 5000 streamed %d", n)
	}
}

func TestFUTypeMapping(t *testing.T) {
	cases := map[isa.OpClass]FUType{
		isa.ClassIntALU:  FUIntALU,
		isa.ClassBranch:  FUIntALU,
		isa.ClassJump:    FUIntALU,
		isa.ClassIntMult: FUIntMult,
		isa.ClassIntDiv:  FUIntMult,
		isa.ClassFPALU:   FUFPALU,
		isa.ClassFPMult:  FUFPMult,
		isa.ClassFPDiv:   FUFPMult,
	}
	for class, want := range cases {
		got, ok := FUTypeFor(class)
		if !ok || got != want {
			t.Errorf("FUTypeFor(%v) = %v,%v", class, got, ok)
		}
	}
	if _, ok := FUTypeFor(isa.ClassLoad); ok {
		t.Error("loads must not map to an execution unit")
	}
}

func TestRoundRobinSpreadsUnits(t *testing.T) {
	// Under round-robin selection, a serial one-at-a-time stream visits
	// every ALU instead of camping on unit 0 (contrast with
	// TestSequentialPriorityPolicy).
	cfg := config.Default()
	cfg.FUSelection = config.SelectRoundRobin
	n := 5000
	insts := make([]trace.DynInst, 0, n)
	for i := 0; i < n; i++ {
		insts = append(insts, trace.DynInst{
			PC: 0x40_0000, Seq: uint64(i),
			Inst: isa.Inst{Op: isa.OpAddI, Dst: isa.IntReg(1), Src1: isa.IntReg(1), Src2: isa.NoReg, Imm: 1},
		})
	}
	src := trace.NewSliceSource("unit", insts)
	c, err := New(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	var seen uint32
	c.SetObserver(observerFunc(func(u *Usage) { seen |= u.IntALUBusy }))
	if _, err := c.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if seen != (1<<cfg.FU.IntALU)-1 {
		t.Fatalf("round-robin used units %#b, want all %d", seen, cfg.FU.IntALU)
	}
}

func TestPerfectBPredRemovesMispredicts(t *testing.T) {
	cfg := config.Default()
	cfg.PerfectBPred = true
	// Pseudo-random branches that defeat the real predictor.
	n := 3000
	insts := make([]trace.DynInst, 0, n)
	pc := uint64(0x40_0000)
	for i := 0; i < n; i++ {
		d := trace.DynInst{
			PC: pc, Seq: uint64(i),
			Inst: isa.Inst{Op: isa.OpBne, Dst: isa.NoReg, Src1: isa.IntReg(24), Src2: isa.IntReg(25)},
		}
		d.Taken = (i*2654435761)>>16&1 == 1
		if d.Taken {
			d.Target = pc + 64
			pc += 64
		} else {
			d.Target = pc + 4
			pc += 4
		}
		insts = append(insts, d)
	}
	c := runCore(t, cfg, insts)
	if c.Stats().Mispredicts != 0 {
		t.Fatalf("oracle front end mispredicted %d times", c.Stats().Mispredicts)
	}
}

func TestIssueCyclesCounter(t *testing.T) {
	insts := straightLine(4000, isa.OpAddI)
	c := runCore(t, config.Default(), insts)
	st := c.Stats()
	if st.IssueCycles == 0 || st.IssueCycles > st.Cycles {
		t.Fatalf("issue cycles %d out of range (cycles %d)", st.IssueCycles, st.Cycles)
	}
}

func TestDistributionsAccumulate(t *testing.T) {
	insts := straightLine(6000, isa.OpAddI)
	c := runCore(t, config.Default(), insts)
	st := c.Stats()
	var issueSum, occSum uint64
	for _, v := range st.IssueSizeHist {
		issueSum += v
	}
	for _, v := range st.OccupancyHist {
		occSum += v
	}
	if issueSum != st.Cycles || occSum != st.Cycles {
		t.Fatalf("histograms don't cover all cycles: %d/%d vs %d", issueSum, occSum, st.Cycles)
	}
	// Weighted issue-size mean equals IPC.
	var weighted uint64
	for size, v := range st.IssueSizeHist {
		weighted += uint64(size) * v
	}
	if weighted != st.Issued {
		t.Fatalf("issue histogram mass %d != issued %d", weighted, st.Issued)
	}
}

func TestDeepPipelineLatchDelays(t *testing.T) {
	// In the 20-stage machine the issue one-hot is piped through 13
	// gatable back-end stages; stage s must still carry the issue count
	// delayed exactly s cycles.
	cfg := config.Deep()
	insts := straightLine(6000, isa.OpAddI)
	src := trace.NewSliceSource("unit", insts)
	c, err := New(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	var hist []int
	errors := 0
	c.SetObserver(observerFunc(func(u *Usage) {
		hist = append(hist, u.IssueCount)
		for s := 1; s < len(u.BackLatch); s++ {
			idx := len(hist) - 1 - s
			want := 0
			if idx >= 0 {
				want = hist[idx]
			}
			if u.BackLatch[s] != want {
				errors++
			}
		}
	}))
	if _, err := c.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	if errors != 0 {
		t.Fatalf("deep latch flow mismatch on %d stage-cycles", errors)
	}
}

func TestCommitIsInOrder(t *testing.T) {
	// A long-latency mul followed by quick adds: the adds complete first
	// but must not retire before the mul (verified via CommitCount never
	// exceeding what program order allows — total committed monotone and
	// final count exact is the observable here, plus the window-stall
	// counter proving the head held younger completions back).
	var insts []trace.DynInst
	seq := uint64(0)
	for i := 0; i < 200; i++ {
		insts = append(insts, trace.DynInst{
			PC: 0x40_0000 + uint64(i%50)*4, Seq: seq,
			Inst: isa.Inst{Op: isa.OpDiv, Dst: isa.IntReg(1), Src1: isa.IntReg(24), Src2: isa.IntReg(25)},
		})
		seq++
		for j := 0; j < 10; j++ {
			insts = append(insts, trace.DynInst{
				PC: 0x40_0000 + uint64((i*11+j)%50)*4, Seq: seq,
				Inst: isa.Inst{Op: isa.OpAddI, Dst: isa.IntReg(2 + j%10), Src1: isa.IntReg(24), Src2: isa.NoReg, Imm: 1},
			})
			seq++
		}
	}
	c := runCore(t, config.Default(), insts)
	if c.Stats().Committed != uint64(len(insts)) {
		t.Fatalf("committed %d of %d", c.Stats().Committed, len(insts))
	}
	// Divides serialise on the 2 mult/div units: IPC is bounded by
	// 11 insts per ~20-cycle div on 2 units.
	if ipc := c.Stats().IPC(); ipc > 1.3 {
		t.Errorf("IPC %.2f too high for div-gated stream", ipc)
	}
}

func TestWarmTrainsPredictor(t *testing.T) {
	// Warm() must train the branch predictor: a repeated loop pattern
	// fetched after warm-up should predict near-perfectly from the start.
	n := 4000
	var insts []trace.DynInst
	pc := uint64(0x40_0000)
	for i := 0; i < n; i++ {
		d := trace.DynInst{
			PC: pc, Seq: uint64(i),
			Inst: isa.Inst{Op: isa.OpBne, Dst: isa.NoReg, Src1: isa.IntReg(24), Src2: isa.IntReg(25)},
		}
		d.Taken = i%16 != 15 // loop-like: taken 15 of 16
		if d.Taken {
			d.Target = 0x40_0000
			pc = 0x40_0000
		} else {
			d.Target = pc + 4
			pc += 4
		}
		insts = append(insts, d)
	}
	src := trace.NewSliceSource("warmed", insts)
	c, err := New(config.Default(), src)
	if err != nil {
		t.Fatal(err)
	}
	warm := trace.NewSliceSource("warm", insts)
	c.Warm(warm, uint64(n))
	if _, err := c.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	acc := float64(st.CondCorrect) / float64(st.CondBranches)
	if acc < 0.9 {
		t.Errorf("post-warm branch accuracy %.2f; warm-up did not train the predictor", acc)
	}
}

// TestFUGrantsAtLatencyBound runs every benchmark, and a stream of
// back-to-back divides, on a machine whose divides take
// config.MaxFULatency cycles, the longest the FU pool ring reaches: no
// grant may start on a unit before its previous grant ends, and every
// cycle's busy mask must be exactly the union of the grants covering it.
func TestFUGrantsAtLatencyBound(t *testing.T) {
	cfg := config.Default()
	cfg.FU.IntDivLat, cfg.FU.FPDivLat = config.MaxFULatency, config.MaxFULatency
	divides := straightLine(4000, isa.OpDiv)
	for i, d := range straightLine(4000, isa.OpFDiv) {
		if i%2 == 0 {
			divides[i] = d
		}
	}
	sources := []trace.Source{trace.NewSliceSource("divides", divides)}
	for _, name := range workload.Names() {
		prof, _ := workload.ByName(name)
		gen, err := workload.NewGenerator(prof)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, trace.NewLimitSource(gen, 20_000))
	}
	for _, src := range sources {
		c, err := New(cfg, src)
		if err != nil {
			t.Fatal(err)
		}
		var (
			end    [NumFUTypes][config.MaxPoolUnits]uint64
			want   [NumFUTypes]map[uint64]uint32
			grants int
			bad    int
		)
		for ft := range want {
			want[ft] = map[uint64]uint32{}
		}
		c.SetIssueListener(listenerFunc(func(ev IssueEvent) {
			if ev.FUIdx < 0 {
				return
			}
			grants++
			if ev.FUStart < end[ev.FUType][ev.FUIdx] {
				t.Errorf("%s: cycle %d: %v unit %d granted from %d, busy until %d",
					src.Name(), ev.Cycle, ev.FUType, ev.FUIdx, ev.FUStart, end[ev.FUType][ev.FUIdx])
			}
			end[ev.FUType][ev.FUIdx] = ev.FUStart + uint64(ev.FULat)
			for cyc := ev.FUStart; cyc < ev.FUStart+uint64(ev.FULat); cyc++ {
				want[ev.FUType][cyc] |= 1 << ev.FUIdx
			}
		}))
		c.SetObserver(observerFunc(func(u *Usage) {
			for ft := FUType(0); ft < NumFUTypes; ft++ {
				if u.FUBusy(ft) != want[ft][u.Cycle] {
					bad++
				}
				delete(want[ft], u.Cycle)
			}
		}))
		if _, err := c.Run(0); err != nil {
			t.Fatal(err)
		}
		if bad != 0 {
			t.Errorf("%s: %d busy masks differ from the union of their grants (%d grants)", src.Name(), bad, grants)
		}
	}
}
