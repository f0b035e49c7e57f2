package core

import (
	"bytes"
	"testing"

	"dcg/internal/gating"
	"dcg/internal/usagetrace"
)

// TestFusedReplayMatchesSequentialBitForBit is the fused-engine golden
// test: evaluating k schemes in one scalar pass must produce, for every
// scheme, exactly the Result the sequential one-scheme-at-a-time replay
// produces — bit for bit, not approximately.
func TestFusedReplayMatchesSequentialBitForBit(t *testing.T) {
	const insts = 40_000
	kinds := []SchemeKind{SchemeNone, SchemeDCG, SchemeOracle}
	for _, bench := range []string{"gzip", "swim"} {
		sim := NewSimulator(DefaultMachine())
		sim.Warmup = 20_000
		tm, err := sim.CaptureBenchmark(bench, insts)
		if err != nil {
			t.Fatal(err)
		}
		fused, err := sim.EvaluateScalar(tm, schemesOf(t, sim, kinds...))
		if err != nil {
			t.Fatal(err)
		}
		if len(fused) != len(kinds) {
			t.Fatalf("%s: %d results for %d schemes", bench, len(fused), len(kinds))
		}
		for i, kind := range kinds {
			sequential, err := sim.EvaluateScalar(tm, schemesOf(t, sim, kind))
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, bench+"/fused/"+kind.String(), sequential[0], fused[i])
		}
	}
}

// TestFusedReplayMatchesSequentialDCGSubsets extends the fused golden
// test across every DCGOptions ablation subset, all fused into a single
// pass over one capture.
func TestFusedReplayMatchesSequentialDCGSubsets(t *testing.T) {
	const insts = 30_000
	sim := NewSimulator(DefaultMachine())
	sim.Warmup = 20_000
	tm, err := sim.CaptureBenchmark("gcc", insts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultMachine()
	schemes := make([]gating.Scheme, 0, 16)
	for mask := 0; mask < 16; mask++ {
		schemes = append(schemes, gating.NewDCGPartial(cfg, gating.DCGOptions{
			GateUnits:   mask&1 != 0,
			GateLatches: mask&2 != 0,
			GateDCache:  mask&4 != 0,
			GateBus:     mask&8 != 0,
		}))
	}
	fused, err := sim.EvaluateScalar(tm, schemes)
	if err != nil {
		t.Fatal(err)
	}
	for mask := 0; mask < 16; mask++ {
		opts := gating.DCGOptions{
			GateUnits:   mask&1 != 0,
			GateLatches: mask&2 != 0,
			GateDCache:  mask&4 != 0,
			GateBus:     mask&8 != 0,
		}
		sequential, err := sim.EvaluateScalar(tm, []gating.Scheme{gating.NewDCGPartial(cfg, opts)})
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, "fused/"+sequential[0].Scheme, sequential[0], fused[mask])
	}
}

// TestFusedReplayRejectsPLB: schemes that throttle timing must be
// rejected by the fused path exactly as by the sequential one.
func TestFusedReplayRejectsPLB(t *testing.T) {
	sim := NewSimulator(DefaultMachine())
	sim.Warmup = 10_000
	tm, err := sim.CaptureBenchmark("gzip", 10_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []SchemeKind{SchemePLBOrig, SchemePLBExt} {
		if _, err := sim.EvaluateTimingAll(tm, []SchemeKind{kind}); err == nil {
			t.Errorf("fused replay accepted %v, which throttles timing", kind)
		}
		// Riding along with neutral schemes must not smuggle it through.
		if _, err := sim.EvaluateTimingAll(tm, []SchemeKind{SchemeNone, kind, SchemeDCG}); err == nil {
			t.Errorf("fused replay accepted %v inside a neutral batch", kind)
		}
	}
	if _, err := sim.EvaluateTimingAll(&Timing{}, []SchemeKind{SchemeDCG}); err == nil {
		t.Error("fused replay accepted a timing with no trace")
	}
	if _, err := sim.EvaluateScalar(&Timing{}, schemesOf(t, sim, SchemeDCG)); err == nil {
		t.Error("scalar replay accepted a timing with no trace")
	}
}

// TestFusedReplayDecodesOnce pins the pass counts of the two replay
// engines over one capture. The scalar fused engine streams the encoded
// trace and builds no decoded form: its evaluations perform no decode.
// The packed view is built at most once per Timing: a capture builds it
// while recording, so every packed evaluation of the capture reuses it
// without a pass over the bytes, and a trace read back from its bytes
// pays one pass, in ReadTrace, and reuses from then on.
func TestFusedReplayDecodesOnce(t *testing.T) {
	sim := NewSimulator(DefaultMachine())
	sim.Warmup = 10_000
	tm, err := sim.CaptureBenchmark("mcf", 20_000)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []SchemeKind{SchemeNone, SchemeDCG, SchemeOracle}

	decodes0 := usagetrace.Decodes()
	reuses0 := usagetrace.DecodeReuses()

	for range 2 {
		if _, err := sim.EvaluateScalar(tm, schemesOf(t, sim, kinds...)); err != nil {
			t.Fatal(err)
		}
	}
	if got := usagetrace.Decodes() - decodes0; got != 0 {
		t.Fatalf("scalar fused evaluations performed %d decodes, want 0", got)
	}
	if got := usagetrace.DecodeReuses() - reuses0; got != 0 {
		t.Fatalf("scalar fused evaluations reported %d decode reuses, want 0", got)
	}

	// The packed route reuses the view the capture built.
	d, err := tm.Trace.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.EvaluateTimingAll(tm, kinds); err != nil {
		t.Fatal(err)
	}
	if got := usagetrace.Decodes() - decodes0; got != 0 {
		t.Fatalf("decode then packed evaluation of a capture ran %d decodes, want 0", got)
	}
	if got := usagetrace.DecodeReuses() - reuses0; got != 2 {
		t.Fatalf("decode then packed evaluation of a capture reported %d reuses, want 2", got)
	}

	// Read back from its bytes, the trace decodes once and reuses from
	// then on.
	var buf bytes.Buffer
	if _, err := tm.Trace.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := usagetrace.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	reloaded := *tm
	reloaded.Trace = back
	if _, err := sim.EvaluateTimingAll(&reloaded, kinds); err != nil {
		t.Fatal(err)
	}
	if got := usagetrace.Decodes() - decodes0; got != 1 {
		t.Fatalf("reading the trace back then a packed evaluation ran %d decodes, want 1", got)
	}
	if got := usagetrace.DecodeReuses() - reuses0; got != 3 {
		t.Fatalf("a packed evaluation after ReadTrace reported %d reuses in all, want 3", got)
	}

	// The decode must describe exactly the captured run.
	if d.Cycles() != tm.CPUStats.Cycles {
		t.Errorf("decoded %d cycles, timing ran %d", d.Cycles(), tm.CPUStats.Cycles)
	}
	if d.BackLatchStages() != tm.Trace.BackLatchStages() {
		t.Errorf("decode header mismatch: stages=%d", d.BackLatchStages())
	}
}
