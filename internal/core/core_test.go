package core

import (
	"context"
	"testing"
	"time"

	"dcg/internal/power"
	trace2 "dcg/internal/trace"
	workload2 "dcg/internal/workload"
)

// testInsts keeps integration runs quick while exercising every subsystem.
const testInsts = 60_000

// runPair runs a benchmark under the baseline and one scheme with a shared
// simulator configuration.
func runPair(t *testing.T, bench string, kind SchemeKind) (base, res *Result) {
	t.Helper()
	sim := NewSimulator(DefaultMachine())
	sim.Warmup = 50_000
	var err error
	base, err = sim.RunBenchmark(bench, SchemeNone, testInsts)
	if err != nil {
		t.Fatal(err)
	}
	res, err = sim.RunBenchmark(bench, kind, testInsts)
	if err != nil {
		t.Fatal(err)
	}
	return base, res
}

func TestDCGNoPerformanceLoss(t *testing.T) {
	// The paper's central claim: DCG's determinism guarantees zero
	// performance impact. Cycle counts must match the baseline EXACTLY.
	for _, bench := range []string{"gzip", "mcf", "swim"} {
		base, dcg := runPair(t, bench, SchemeDCG)
		if dcg.Cycles != base.Cycles {
			t.Errorf("%s: DCG cycles %d != baseline %d", bench, dcg.Cycles, base.Cycles)
		}
		if dcg.IPC != base.IPC {
			t.Errorf("%s: DCG IPC %.4f != baseline %.4f", bench, dcg.IPC, base.IPC)
		}
	}
}

func TestDCGSoundness(t *testing.T) {
	// DCG must never gate a used structure (GateViolations) and every
	// gate decision must be set up at least one cycle in advance
	// (LeadViolations).
	for _, bench := range Benchmarks() {
		sim := NewSimulator(DefaultMachine())
		sim.Warmup = 20_000
		res, err := sim.RunBenchmark(bench, SchemeDCG, 40_000)
		if err != nil {
			t.Fatal(err)
		}
		if res.GateViolations != 0 {
			t.Errorf("%s: %d gate violations", bench, res.GateViolations)
		}
		if res.LeadViolations != 0 {
			t.Errorf("%s: %d lead violations", bench, res.LeadViolations)
		}
	}
}

func TestDCGNoLostOpportunity(t *testing.T) {
	// The complement of soundness: every idle cycle of a gatable block is
	// gated. Under the paper's accounting this means DCG's gated-component
	// energy equals usage-based energy exactly: energy(IntALU)/unit-power
	// must equal the busy integral.
	base, dcg := runPair(t, "gcc", SchemeDCG)
	_ = base
	m := dcg.Model()
	st := dcg.CPUStats
	wantALU := float64(st.FUBusyCycles[0]) * m.IntALUUnit // FUIntALU == 0
	if got := dcg.Energy[power.CompIntALU]; !near(got, wantALU, 1e-6) {
		t.Errorf("int-ALU energy %.1f != usage-based %.1f (lost opportunity or over-gating)", got, wantALU)
	}
	wantPorts := float64(st.DPortCycles) * m.DecoderPort
	if got := dcg.Energy[power.CompDCacheDecoder]; !near(got, wantPorts, 1e-6) {
		t.Errorf("decoder energy %.1f != usage-based %.1f", got, wantPorts)
	}
	wantBus := float64(st.ResultBusBusy) * m.ResultBusUnit
	if got := dcg.Energy[power.CompResultBus]; !near(got, wantBus, 1e-6) {
		t.Errorf("result-bus energy %.1f != usage-based %.1f", got, wantBus)
	}
	wantLatch := float64(st.LatchSlotFlow) * m.LatchSlot
	if got := dcg.Energy[power.CompLatchBack]; !near(got, wantLatch, 1e-6) {
		t.Errorf("latch energy %.1f != usage-based %.1f", got, wantLatch)
	}
}

func near(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol*(1+b)
}

func TestDCGSavesPower(t *testing.T) {
	for _, bench := range []string{"gzip", "swim"} {
		_, dcg := runPair(t, bench, SchemeDCG)
		if dcg.Saving < 0.10 || dcg.Saving > 0.45 {
			t.Errorf("%s: DCG saving %.3f outside plausible band", bench, dcg.Saving)
		}
		if dcg.AvgPower >= dcg.BaselinePower {
			t.Errorf("%s: DCG power %.0f not below baseline %.0f", bench, dcg.AvgPower, dcg.BaselinePower)
		}
	}
}

func TestSchemeOrdering(t *testing.T) {
	// The paper's headline ordering: DCG saves more than PLB-ext, which
	// saves more than PLB-orig; PLB loses some performance, DCG none.
	sim := NewSimulator(DefaultMachine())
	sim.Warmup = 50_000
	results := map[SchemeKind]*Result{}
	for _, k := range AllSchemes() {
		res, err := sim.RunBenchmark("gcc", k, testInsts)
		if err != nil {
			t.Fatal(err)
		}
		results[k] = res
	}
	if !(results[SchemeDCG].Saving > results[SchemePLBExt].Saving) {
		t.Errorf("DCG %.3f not above PLB-ext %.3f",
			results[SchemeDCG].Saving, results[SchemePLBExt].Saving)
	}
	if !(results[SchemePLBExt].Saving > results[SchemePLBOrig].Saving) {
		t.Errorf("PLB-ext %.3f not above PLB-orig %.3f",
			results[SchemePLBExt].Saving, results[SchemePLBOrig].Saving)
	}
	if results[SchemePLBOrig].Saving <= 0 {
		t.Error("PLB-orig saved nothing")
	}
	if results[SchemePLBExt].IPC > results[SchemeNone].IPC+1e-9 {
		t.Error("PLB gained performance, impossible")
	}
}

func TestPLBPerformanceLossBounded(t *testing.T) {
	// PLB costs some performance (paper: 2.9% average) but must stay
	// within a sane bound.
	base, plb := runPair(t, "swim", SchemePLBExt)
	loss := 1 - plb.IPC/base.IPC
	if loss < 0 {
		t.Errorf("PLB IPC above baseline (loss %.4f)", loss)
	}
	if loss > 0.15 {
		t.Errorf("PLB perf loss %.1f%% implausibly high", 100*loss)
	}
	if plb.PLBModeCycles == nil {
		t.Fatal("PLB run missing mode cycles")
	}
}

// TestPLBKeepsOneUnitPerPool: on a machine with 1-3 integer ALUs, PLB's
// narrow modes would disable every ALU, so no integer op could issue and
// the low issue IPC would hold the machine in that mode forever. Each run
// must finish well inside its deadline.
func TestPLBKeepsOneUnitPerPool(t *testing.T) {
	for _, kind := range []SchemeKind{SchemePLBOrig, SchemePLBExt, SchemeDCGPLB} {
		for alus := 1; alus <= 3; alus++ {
			m := DefaultMachine()
			m.FU.IntALU = alus
			sim := NewSimulator(m)
			sim.Warmup = 5_000
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			res, err := sim.RunBenchmarkContext(ctx, "gcc", kind, 5_000)
			cancel()
			if err != nil {
				t.Fatalf("%s with %d int ALUs: %v", kind, alus, err)
			}
			if res.Committed != 5_000 {
				t.Errorf("%s with %d int ALUs: committed %d, want 5000", kind, alus, res.Committed)
			}
		}
	}
}

func TestBaselineInvariants(t *testing.T) {
	for _, bench := range []string{"gzip", "mcf"} {
		sim := NewSimulator(DefaultMachine())
		sim.Warmup = 20_000
		res, err := sim.RunBenchmark(bench, SchemeNone, 40_000)
		if err != nil {
			t.Fatal(err)
		}
		if res.Saving < -1e-9 || res.Saving > 1e-9 {
			t.Errorf("%s: baseline saving %.6f != 0", bench, res.Saving)
		}
		if res.Committed != 40_000 {
			t.Errorf("%s: committed %d", bench, res.Committed)
		}
		u := res.Util
		for _, v := range []float64{u.IntUnits, u.FPUnits, u.Latches, u.DPorts, u.ResultBus} {
			if v < 0 || v > 1 {
				t.Errorf("%s: utilisation %v out of range", bench, v)
			}
		}
	}
}

func TestMcfIsBestDCGCase(t *testing.T) {
	// Paper section 5.1: mcf (and lucas) give DCG its largest savings
	// because high miss rates idle the pipeline.
	sim := NewSimulator(DefaultMachine())
	sim.Warmup = 50_000
	mcf, err := sim.RunBenchmark("mcf", SchemeDCG, testInsts)
	if err != nil {
		t.Fatal(err)
	}
	gzip, err := sim.RunBenchmark("gzip", SchemeDCG, testInsts)
	if err != nil {
		t.Fatal(err)
	}
	if mcf.Saving <= gzip.Saving {
		t.Errorf("mcf saving %.3f not above gzip %.3f", mcf.Saving, gzip.Saving)
	}
	if mcf.DL1MissRate < 0.2 {
		t.Errorf("mcf miss rate %.2f too low to be mcf", mcf.DL1MissRate)
	}
}

func TestFPUnitsFullyGatedOnIntegerCode(t *testing.T) {
	// Paper: "for some integer programs, DCG saves the entire FPU power".
	_, dcg := runPair(t, "bzip2", SchemeDCG)
	if s := dcg.ComponentSaving(power.CompFPALU, power.CompFPMult); s < 0.98 {
		t.Errorf("FPU saving on integer code = %.3f, want ~1", s)
	}
}

func TestDeepPipelineSavesMore(t *testing.T) {
	// Figure 17: DCG saves more on the 20-stage pipeline.
	base := NewSimulator(DefaultMachine())
	base.Warmup = 50_000
	deep := NewSimulator(DeepMachine())
	deep.Warmup = 50_000
	r8, err := base.RunBenchmark("gcc", SchemeDCG, testInsts)
	if err != nil {
		t.Fatal(err)
	}
	r20, err := deep.RunBenchmark("gcc", SchemeDCG, testInsts)
	if err != nil {
		t.Fatal(err)
	}
	if r20.Saving <= r8.Saving {
		t.Errorf("20-stage saving %.3f not above 8-stage %.3f", r20.Saving, r8.Saving)
	}
}

func TestUnknownBenchmarkAndScheme(t *testing.T) {
	sim := NewSimulator(DefaultMachine())
	if _, err := sim.RunBenchmark("nosuch", SchemeDCG, 1000); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := sim.RunBenchmark("gzip", SchemeKind("nosuch"), 1000); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestResultSummaryRenders(t *testing.T) {
	sim := NewSimulator(DefaultMachine())
	sim.Warmup = 10_000
	res, err := sim.RunBenchmark("gzip", SchemePLBExt, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary() == "" {
		t.Error("empty summary")
	}
	if res.PowerDelay() <= 0 {
		t.Error("power-delay not positive")
	}
}

func TestBenchmarkLists(t *testing.T) {
	if len(Benchmarks()) != 16 || len(IntBenchmarks()) != 8 || len(FPBenchmarks()) != 8 {
		t.Error("benchmark lists wrong")
	}
}

func TestSchemeKindStrings(t *testing.T) {
	want := map[SchemeKind]string{
		SchemeNone: "none", SchemeDCG: "dcg",
		SchemePLBOrig: "plb-orig", SchemePLBExt: "plb-ext",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%v -> %q, want %q", k, k.String(), s)
		}
	}
}

func TestRunStreamWarmsAndMeasures(t *testing.T) {
	// RunStream must treat a custom source like a benchmark: warm on the
	// leading instructions, measure the next maxInsts.
	sim := NewSimulator(DefaultMachine())
	sim.Warmup = 30_000
	gen := newGen(t, "gcc")
	res, err := sim.RunStream(gen, SchemeDCG, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 30_000 {
		t.Fatalf("committed %d", res.Committed)
	}
	// A warmed run of the same region must beat an unwarmed one (the
	// unwarmed run eats the cold-cache region).
	cold, err := NewSimulator(DefaultMachine()).RunSource(
		newGenLimited(t, "gcc", 30_000), SchemeDCG)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= cold.IPC*0.9 {
		t.Errorf("warmed IPC %.2f not above cold %.2f", res.IPC, cold.IPC)
	}
}

func TestLeakageReducesSaving(t *testing.T) {
	run := func(lk float64) float64 {
		sim := NewSimulator(DefaultMachine())
		sim.Warmup = 20_000
		sim.LeakageFrac = lk
		res, err := sim.RunBenchmark("gzip", SchemeDCG, 30_000)
		if err != nil {
			t.Fatal(err)
		}
		return res.Saving
	}
	none, some := run(0), run(0.25)
	if some >= none {
		t.Errorf("leakage did not reduce saving: %.3f vs %.3f", some, none)
	}
	if some <= 0 {
		t.Errorf("saving vanished under moderate leakage: %.3f", some)
	}
}

func TestStallStackSumsToOne(t *testing.T) {
	sim := NewSimulator(DefaultMachine())
	sim.Warmup = 20_000
	for _, b := range []string{"gzip", "mcf"} {
		res, err := sim.RunBenchmark(b, SchemeNone, 30_000)
		if err != nil {
			t.Fatal(err)
		}
		s := res.Stall
		sum := s.Busy + s.FetchBubble + s.WindowEmpty + s.WindowStall + s.Other
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: stall stack sums to %.4f", b, sum)
		}
		for _, v := range []float64{s.Busy, s.FetchBubble, s.WindowEmpty, s.WindowStall, s.Other} {
			if v < 0 || v > 1 {
				t.Errorf("%s: stall class %v out of range", b, v)
			}
		}
	}
	// mcf must show heavy window pressure (memory-bound).
	res, _ := sim.RunBenchmark("mcf", SchemeNone, 30_000)
	if res.Stall.WindowStall < 0.3 {
		t.Errorf("mcf window-stall fraction %.2f implausibly low", res.Stall.WindowStall)
	}
}

// newGen builds an unbounded generator source for a benchmark.
func newGen(t *testing.T, name string) trace2.Source {
	t.Helper()
	p, ok := workload2.ByName(name)
	if !ok {
		t.Fatal("unknown benchmark")
	}
	g, err := workload2.NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newGenLimited(t *testing.T, name string, n uint64) trace2.Source {
	return trace2.NewLimitSource(newGen(t, name), n)
}
