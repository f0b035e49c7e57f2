package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"dcg/internal/config"
	"dcg/internal/gating"
	"dcg/internal/power"
	"dcg/internal/usagetrace"
)

// assertBitIdentical requires every power metric of the two results to be
// EXACTLY equal — not approximately. The replay feeds the accountant the
// same usage vectors and events in the same order as the live core, so
// every float operation happens in the same sequence and the outputs are
// bit-for-bit identical; any tolerance here would hide a divergence.
func assertBitIdentical(t *testing.T, label string, direct, replayed *Result) {
	t.Helper()
	if direct.Cycles != replayed.Cycles {
		t.Errorf("%s: cycles %d != %d", label, replayed.Cycles, direct.Cycles)
	}
	if direct.Committed != replayed.Committed {
		t.Errorf("%s: committed %d != %d", label, replayed.Committed, direct.Committed)
	}
	if direct.IPC != replayed.IPC {
		t.Errorf("%s: IPC %v != %v", label, replayed.IPC, direct.IPC)
	}
	if direct.AvgPower != replayed.AvgPower {
		t.Errorf("%s: avg power %v != %v", label, replayed.AvgPower, direct.AvgPower)
	}
	if direct.BaselinePower != replayed.BaselinePower {
		t.Errorf("%s: baseline power %v != %v", label, replayed.BaselinePower, direct.BaselinePower)
	}
	if direct.Saving != replayed.Saving {
		t.Errorf("%s: saving %v != %v", label, replayed.Saving, direct.Saving)
	}
	for c := power.Component(0); c < power.NumComponents; c++ {
		if direct.Energy[c] != replayed.Energy[c] {
			t.Errorf("%s: energy[%v] %v != %v", label, c, replayed.Energy[c], direct.Energy[c])
		}
	}
	if direct.GateViolations != replayed.GateViolations {
		t.Errorf("%s: gate violations %d != %d", label, replayed.GateViolations, direct.GateViolations)
	}
	if direct.LeadViolations != replayed.LeadViolations {
		t.Errorf("%s: lead violations %d != %d", label, replayed.LeadViolations, direct.LeadViolations)
	}
	groups := [][]power.Component{
		{power.CompIntALU, power.CompIntMult},
		{power.CompFPALU, power.CompFPMult},
		{power.CompResultBus},
		{power.CompDCacheDecoder},
	}
	for _, g := range groups {
		if d, r := direct.ComponentSaving(g...), replayed.ComponentSaving(g...); d != r {
			t.Errorf("%s: component saving %v: %v != %v", label, g, r, d)
		}
	}
	if d, r := direct.LatchSaving(), replayed.LatchSaving(); d != r {
		t.Errorf("%s: latch saving %v != %v", label, r, d)
	}
	if d, r := direct.DCacheSaving(), replayed.DCacheSaving(); d != r {
		t.Errorf("%s: d-cache saving %v != %v", label, r, d)
	}
}

// TestReplayMatchesDirectRunBitForBit is the golden equivalence test: for
// every packed-capable scheme, evaluating a captured trace on either replay
// engine must produce the same Result a full simulation does, bit for bit.
// Beside Table 1 it runs a 6-wide machine and a 4-wide one with a 37-entry
// window, where PLB's width fractions and the oracle's occupancy fractions
// are not exact in binary.
func TestReplayMatchesDirectRunBitForBit(t *testing.T) {
	const insts = 40_000
	sixWide := DefaultMachine()
	sixWide.IssueWidth = 6
	win37 := DefaultMachine()
	win37.IssueWidth, win37.WindowSize = 4, 37
	machines := []struct {
		name string
		cfg  config.Config
	}{{"table1", DefaultMachine()}, {"6wide", sixWide}, {"4wide-win37", win37}}
	kinds := []SchemeKind{SchemeNone, SchemeDCG, SchemeOracle, SchemeLector}
	for _, m := range machines {
		for _, bench := range []string{"gzip", "swim"} {
			sim := NewSimulator(m.cfg)
			sim.Warmup = 20_000
			tm, err := sim.CaptureBenchmark(bench, insts)
			if err != nil {
				t.Fatal(err)
			}
			if tm.Trace.Cycles() != tm.CPUStats.Cycles {
				t.Fatalf("%s/%s: trace holds %d cycles, timing ran %d", m.name, bench, tm.Trace.Cycles(), tm.CPUStats.Cycles)
			}
			packed := packedOnly(t, sim, tm, schemesOf(t, sim, kinds...))
			for i, kind := range kinds {
				label := m.name + "/" + bench + "/" + kind.String()
				direct, err := sim.RunBenchmark(bench, kind, insts)
				if err != nil {
					t.Fatal(err)
				}
				scalar, err := sim.EvaluateScalar(tm, schemesOf(t, sim, kind))
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, label+"/scalar", direct, scalar[0])
				assertBitIdentical(t, label+"/packed", direct, packed[i])
			}
		}
	}
}

// TestReplayMatchesDirectRunAllDCGSubsets extends the golden test across
// every DCGOptions ablation subset, all replayed from one capture.
func TestReplayMatchesDirectRunAllDCGSubsets(t *testing.T) {
	const insts = 30_000
	sim := NewSimulator(DefaultMachine())
	sim.Warmup = 20_000
	tm, err := sim.CaptureBenchmark("gcc", insts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultMachine()
	for mask := 0; mask < 16; mask++ {
		opts := gating.DCGOptions{
			GateUnits:   mask&1 != 0,
			GateLatches: mask&2 != 0,
			GateDCache:  mask&4 != 0,
			GateBus:     mask&8 != 0,
		}
		direct, err := sim.RunBenchmarkScheme("gcc", gating.NewDCGPartial(cfg, opts), insts)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := sim.EvaluateScalar(tm, []gating.Scheme{gating.NewDCGPartial(cfg, opts)})
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, direct.Scheme, direct, replayed[0])
	}
}

// TestRunAndCaptureMatchesPlainRun: for every timing-neutral scheme, the
// capturing run's own Result (the accountant riding alongside the trace
// writer) equals an uninstrumented run — capture must not perturb the
// simulation — and the router's evaluation of the captured Timing equals
// both, every field included.
func TestRunAndCaptureMatchesPlainRun(t *testing.T) {
	sim := NewSimulator(DefaultMachine())
	sim.Warmup = 20_000
	for _, kind := range AllSchemes() {
		if !TimingNeutral(kind) {
			continue
		}
		label := "capture-run/" + string(kind)
		capRes, tm, err := sim.RunAndCapture(context.Background(), "mcf", kind, 30_000, usagetrace.ChannelLatchValue)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := sim.RunBenchmark("mcf", kind, 30_000)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, label, direct, capRes)
		if tm.Benchmark != "mcf" || tm.Trace == nil {
			t.Fatalf("timing incomplete: %+v", tm)
		}
		routed, err := sim.EvaluateTimingAll(tm, []SchemeKind{kind})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(capRes, direct) || !reflect.DeepEqual(routed[0], direct) {
			t.Errorf("%s: results differ:\ncapture %+v\ndirect  %+v\nrouted  %+v", label, capRes, direct, routed[0])
		}
	}
}

// TestTimingSurvivesSerialisation: a trace written to bytes and reloaded
// evaluates identically — the on-disk format loses nothing.
func TestTimingSurvivesSerialisation(t *testing.T) {
	sim := NewSimulator(DefaultMachine())
	sim.Warmup = 10_000
	tm, err := sim.CaptureBenchmark("gzip", 20_000)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tm.Trace.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := usagetrace.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tm2 := *tm
	tm2.Trace = reloaded
	a, err := sim.EvaluateScalar(tm, schemesOf(t, sim, SchemeDCG))
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.EvaluateScalar(&tm2, schemesOf(t, sim, SchemeDCG))
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "serialised", a[0], b[0])
}

func TestCaptureAndReplayRejectPLB(t *testing.T) {
	sim := NewSimulator(DefaultMachine())
	sim.Warmup = 10_000
	if _, _, err := sim.RunAndCapture(context.Background(), "gzip", SchemePLBExt, 10_000); err == nil {
		t.Error("capture accepted PLB, which throttles timing")
	}
	tm, err := sim.CaptureBenchmark("gzip", 10_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []SchemeKind{SchemePLBOrig, SchemePLBExt} {
		if _, err := sim.EvaluateTimingAll(tm, []SchemeKind{kind}); err == nil {
			t.Errorf("replay accepted %v, which throttles timing", kind)
		}
	}
	if _, err := sim.EvaluateTimingAll(&Timing{}, []SchemeKind{SchemeDCG}); err == nil {
		t.Error("replay accepted a timing with no trace")
	}
}

func TestTimingNeutrality(t *testing.T) {
	want := map[SchemeKind]bool{
		SchemeNone: true, SchemeDCG: true, SchemeOracle: true,
		SchemePLBOrig: false, SchemePLBExt: false,
	}
	for k, neutral := range want {
		if TimingNeutral(k) != neutral {
			t.Errorf("TimingNeutral(%v) = %v, want %v", k, !neutral, neutral)
		}
	}
}

// TestOracleSchemeWired: the headroom scheme is a first-class SchemeKind —
// parseable, listed, and saving strictly more than DCG (it gates a
// superset of structures).
func TestOracleSchemeWired(t *testing.T) {
	k, err := ParseScheme("oracle")
	if err != nil || k != SchemeOracle {
		t.Fatalf("ParseScheme(oracle) = %v, %v", k, err)
	}
	found := false
	for _, s := range AllSchemes() {
		if s == SchemeOracle {
			found = true
		}
	}
	if !found {
		t.Fatal("AllSchemes omits oracle")
	}
	sim := NewSimulator(DefaultMachine())
	sim.Warmup = 20_000
	tm, err := sim.CaptureBenchmark("gcc", 30_000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.EvaluateTimingAll(tm, []SchemeKind{SchemeDCG, SchemeOracle})
	if err != nil {
		t.Fatal(err)
	}
	dcg, oracle := res[0], res[1]
	if oracle.Saving <= dcg.Saving {
		t.Errorf("oracle saving %.3f not above DCG %.3f", oracle.Saving, dcg.Saving)
	}
	if oracle.GateViolations != 0 {
		t.Errorf("oracle run has %d gate violations", oracle.GateViolations)
	}
}
