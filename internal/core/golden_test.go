package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
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

// TestRunAndCaptureMatchesPlainRun: for every timing-neutral scheme,
// with the paper's zero leakage and with gated structures leaking a
// quarter of their dynamic power, the Result RunAndCapture returns (a
// record-only capture, then the router's evaluation of its view) equals
// a live run's — capture must not perturb the simulation — and the
// router's evaluation of the returned Timing equals both, every field
// included.
func TestRunAndCaptureMatchesPlainRun(t *testing.T) {
	for _, leakage := range []float64{0, 0.25} {
		sim := NewSimulator(DefaultMachine())
		sim.Warmup = 20_000
		sim.LeakageFrac = leakage
		for _, kind := range AllSchemes() {
			if !TimingNeutral(kind) {
				continue
			}
			label := fmt.Sprintf("capture-run/leakage=%g/%s", leakage, kind)
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
}

// TestStoreDelayCapturesMatchLiveRuns: on a machine whose D-port use can
// exceed its ports (stores delayed a cycle, config.StoreOneCycleDelay),
// every registered scheme's RunAndCapture Result equals its live run, from
// a view-only capture and from one with bytes: each capture builds the
// over-capacity D-port plane the ungated schemes read from the live
// usage, with no bytes to re-read.
func TestStoreDelayCapturesMatchLiveRuns(t *testing.T) {
	m := DefaultMachine()
	m.StoreDelayPolicy = config.StoreOneCycleDelay
	sim := NewSimulator(m)
	sim.Warmup = 5_000
	for _, bench := range []string{"bzip2", "gcc", "mcf"} {
		for _, kind := range AllSchemes() {
			live, err := sim.RunBenchmark(bench, kind, 20_000)
			if err != nil {
				t.Fatal(err)
			}
			for _, viewOnly := range []bool{false, true} {
				ctx := context.Background()
				if viewOnly {
					ctx = WithViewOnlyCapture(ctx)
				}
				res, _, err := sim.RunAndCapture(ctx, bench, kind, 20_000)
				if err != nil {
					t.Errorf("%s/%s view-only=%v: %v", bench, kind, viewOnly, err)
					continue
				}
				if !reflect.DeepEqual(res, live) {
					t.Errorf("%s/%s view-only=%v: the capture's Result differs from the live run's", bench, kind, viewOnly)
				}
			}
		}
	}
}

// TestRecordedViewMatchesDecode: the packed view a capture's Recorder
// builds from the live core equals, in every field, the view ReadTrace
// builds from the same bytes — on every benchmark, on the Table 1 and
// deep machines, with and without the latchvalue channel.
func TestRecordedViewMatchesDecode(t *testing.T) {
	for _, m := range []struct {
		name string
		cfg  config.Config
	}{{"table1", DefaultMachine()}, {"deep", DeepMachine()}} {
		sim := NewSimulator(m.cfg)
		sim.Warmup = 10_000
		for _, bench := range Benchmarks() {
			for _, extra := range [][]string{nil, {usagetrace.ChannelLatchValue}} {
				label := fmt.Sprintf("%s/%s/%v", m.name, bench, extra)
				tm, err := sim.CaptureBenchmark(bench, 30_000, extra...)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertViewMatchesDecode(t, label, tm.Trace)
			}
		}
	}
}

// assertViewMatchesDecode fails unless tr's memoized packed view equals
// the one ReadTrace builds from tr's bytes.
func assertViewMatchesDecode(t testing.TB, label string, tr *usagetrace.Trace) {
	t.Helper()
	live, err := tr.Decode()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := usagetrace.ReadTrace(&buf)
	if err != nil {
		t.Fatalf("%s: reading the trace back: %v", label, err)
	}
	decoded, err := back.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, decoded) {
		t.Errorf("%s: the recorded packed view differs from the decoded one", label)
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

// TestCaptureAndReplayRejectPLB: a scheme is evaluated only on a capture
// its own throttle drove, so an unthrottled capture refuses the PLB
// family and a throttled one every scheme of another throttle, and a PLB
// only with the registered parameters; every refusal names the scheme.
func TestCaptureAndReplayRejectPLB(t *testing.T) {
	sim := NewSimulator(DefaultMachine())
	sim.Warmup = 5_000
	const bench, insts = "mcf", 10_000
	neutral, err := sim.CaptureBenchmark(bench, insts)
	if err != nil {
		t.Fatal(err)
	}
	_, ext, err := sim.RunAndCapture(context.Background(), bench, SchemePLBExt, insts)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.Machine()
	window := gating.DefaultPLBParams()
	window.Window = 512
	oracle := gating.NewPLB(m, gating.DefaultPLBParams(), true)
	oracle.SetOracleSchedule([]int{gating.Mode8, gating.Mode4})
	for _, tc := range []struct {
		what   string
		timing *Timing
		scheme gating.Scheme
		want   string
	}{
		{"plb-orig on a neutral capture", neutral, gating.NewPLB(m, gating.DefaultPLBParams(), false), "plb-orig"},
		{"plb-ext on a neutral capture", neutral, gating.NewPLB(m, gating.DefaultPLBParams(), true), "plb-ext"},
		{"dcg+plb on a neutral capture", neutral, gating.NewDCGPLB(m, gating.DefaultPLBParams()), "dcg+plb"},
		{"dcg on a throttled capture", ext, gating.NewDCG(m), "dcg"},
		{"none on a throttled capture", ext, gating.NewNone(m), "none"},
		{"plb-ext with a 512-cycle window", ext, gating.NewPLB(m, window, true), "plb-ext"},
		{"plb-ext with an oracle schedule", neutral, oracle, "plb-ext-oracle"},
	} {
		res, err := sim.EvaluateTimingSchemes(tc.timing, []gating.Scheme{tc.scheme})
		if err == nil {
			t.Errorf("%s: evaluated (%d Results), want a refusal", tc.what, len(res))
			continue
		}
		if !strings.Contains(err.Error(), "scheme "+tc.want) {
			t.Errorf("%s: error %q does not name scheme %s", tc.what, err, tc.want)
		}
	}
	if _, err := sim.EvaluateTimingAll(ext, []SchemeKind{SchemePLBExt, SchemeDCGPLB}); err != nil {
		t.Errorf("plb-ext and dcg+plb on plb-ext's capture: %v", err)
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
