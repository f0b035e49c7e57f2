package core

import (
	"fmt"
	"testing"

	"dcg/internal/cpu"
	"dcg/internal/gating"
	"dcg/internal/usagetrace"
)

// schemesOf instantiates the kinds for sim's machine.
func schemesOf(t testing.TB, sim *Simulator, kinds ...SchemeKind) []gating.Scheme {
	t.Helper()
	schemes := make([]gating.Scheme, len(kinds))
	for i, k := range kinds {
		sc, err := sim.makeScheme(k)
		if err != nil {
			t.Fatal(err)
		}
		schemes[i] = sc
	}
	return schemes
}

// packedOnly evaluates schemes through the router and fails unless the
// packed kernel served every one of them, so a golden that compares its
// Results with the scalar engine's knows which engine ran.
func packedOnly(t testing.TB, sim *Simulator, tm *Timing, schemes []gating.Scheme) []*Result {
	t.Helper()
	packed0, fallback0 := PackedReplaySchemes(), PackedReplayFallbacks()
	res, err := sim.EvaluateTimingSchemes(tm, schemes)
	if err != nil {
		t.Fatal(err)
	}
	if got := PackedReplaySchemes() - packed0; got != uint64(len(schemes)) || PackedReplayFallbacks() != fallback0 {
		t.Fatalf("the packed kernel served %d of %d schemes", got, len(schemes))
	}
	return res
}

// allDCGSubsets builds one DCG instance per ablation subset.
func allDCGSubsets() []gating.Scheme {
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
	return schemes
}

// TestPackedReplayMatchesScalarBitForBit is the packed-kernel golden
// test on real captures: the packed kernel must produce, for every
// packed-capable scheme kind, exactly the Result the scalar fused engine
// produces — bit for bit.
func TestPackedReplayMatchesScalarBitForBit(t *testing.T) {
	const insts = 40_000
	kinds := []SchemeKind{SchemeNone, SchemeDCG, SchemeOracle, SchemeLector}
	for _, bench := range []string{"gzip", "swim"} {
		sim := NewSimulator(DefaultMachine())
		sim.Warmup = 20_000
		tm, err := sim.CaptureBenchmark(bench, insts)
		if err != nil {
			t.Fatal(err)
		}
		scalarRes, err := sim.EvaluateScalar(tm, schemesOf(t, sim, kinds...))
		if err != nil {
			t.Fatal(err)
		}
		packedRes := packedOnly(t, sim, tm, schemesOf(t, sim, kinds...))
		for i, kind := range kinds {
			assertBitIdentical(t, bench+"/packed/"+kind.String(), scalarRes[i], packedRes[i])
		}
	}
}

// TestPackedReplayMatchesScalarDCGSubsets extends the packed golden test
// across all 16 DCGOptions ablation subsets on a real capture.
func TestPackedReplayMatchesScalarDCGSubsets(t *testing.T) {
	sim := NewSimulator(DefaultMachine())
	sim.Warmup = 20_000
	tm, err := sim.CaptureBenchmark("gcc", 30_000)
	if err != nil {
		t.Fatal(err)
	}
	scalarRes, err := sim.EvaluateScalar(tm, allDCGSubsets())
	if err != nil {
		t.Fatal(err)
	}
	packedRes := packedOnly(t, sim, tm, allDCGSubsets())
	for i := range packedRes {
		assertBitIdentical(t, "packed/"+packedRes[i].Scheme, scalarRes[i], packedRes[i])
	}
}

// craftTiming captures a fully scripted trace against the default
// machine and wraps it in a minimal Timing, so adversarial cycle
// patterns that no real workload produces can drive both replay engines.
func craftTiming(t testing.TB, usages []cpu.Usage, events map[int][]cpu.IssueEvent, extra ...string) *Timing {
	t.Helper()
	machine := DefaultMachine()
	stages := machine.BackEndLatchStages()
	rec, err := usagetrace.NewRecorder("adversarial", stages, extra...)
	if err != nil {
		t.Fatal(err)
	}
	for c := range usages {
		for _, ev := range events[c] {
			ev.Cycle = uint64(c)
			rec.OnIssue(ev)
		}
		u := usages[c]
		u.Cycle = uint64(c)
		if u.BackLatch == nil {
			u.BackLatch = make([]int, stages)
		}
		if u.BackLatchNewVal == nil && len(extra) > 0 {
			u.BackLatchNewVal = make([]int, stages)
		}
		rec.OnCycle(&u)
	}
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	tm := &Timing{Benchmark: "adversarial", Machine: machine, Trace: tr}
	tm.CPUStats.Cycles = uint64(len(usages))
	return tm
}

// varyingTrace crafts an n-cycle trace with every usage column varying
// and a scheduled issue event every 13 cycles.
func varyingTrace(t testing.TB, n int) *Timing {
	usages := make([]cpu.Usage, n)
	for c := range usages {
		usages[c] = cpu.Usage{
			IssueCount: c % 4, CommitCount: c % 5, FetchCount: c % 9,
			IntALUBusy: uint32(c) & 0x3f, DPortUsed: c % 3, ResultBus: c % 5,
			WindowOccupancy: c % 129,
			BackLatch:       []int{c % 3, c % 4, c % 5, c % 2, c % 7},
		}
	}
	events := map[int][]cpu.IssueEvent{}
	for c := 0; c+4 < n; c += 13 {
		events[c] = []cpu.IssueEvent{{
			FUIdx: c % 4, FUType: cpu.FUType(c % int(cpu.NumFUTypes)),
			FUStart: uint64(c + 2), FULat: 1 + c%3,
			IsLoad: true, DPortCycle: uint64(c + 3),
			WritesReg: true, ResultBusCycle: uint64(c + 4),
		}}
	}
	return craftTiming(t, usages, events)
}

// TestPackedReplayAdversarialTraces golden-tests the packed kernel
// against the scalar engine on crafted traces that hit the
// representation's edges (adversarialTraces) and on runTraces' repeat
// records that are not quiet.
func TestPackedReplayAdversarialTraces(t *testing.T) {
	kinds := []SchemeKind{SchemeNone, SchemeDCG, SchemeOracle, SchemeLector}
	traces := adversarialTraces(t)
	for name, tm := range runTraces(t) {
		traces[name] = tm
	}

	sim := NewSimulator(DefaultMachine())
	for name, tm := range traces {
		scalarRes, err := sim.EvaluateScalar(tm, schemesOf(t, sim, kinds...))
		if err != nil {
			t.Fatalf("%s: scalar: %v", name, err)
		}
		packedRes := packedOnly(t, sim, tm, schemesOf(t, sim, kinds...))
		for i, kind := range kinds {
			assertBitIdentical(t, name+"/"+kind.String(), scalarRes[i], packedRes[i])
		}

		scalarSub, err := sim.EvaluateScalar(tm, allDCGSubsets())
		if err != nil {
			t.Fatalf("%s: scalar subsets: %v", name, err)
		}
		packedSub := packedOnly(t, sim, tm, allDCGSubsets())
		for i := range packedSub {
			assertBitIdentical(t, name+"/"+packedSub[i].Scheme, scalarSub[i], packedSub[i])
		}
	}

	// The saturated trace must actually report violations — silence here
	// would mean the planes compared equal because both were broken.
	res, err := sim.EvaluateScalar(traces["saturated"], schemesOf(t, sim, SchemeDCG))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].GateViolations != 64 {
		t.Errorf("saturated trace: %d gate violations under dcg, want 64 (every cycle)", res[0].GateViolations)
	}
}

// adversarialTraces crafts traces that hit the packed representation's
// edges: all-zero usage, saturated FU masks with over-capacity
// ports/buses/latches (gate violations on every class), empty and
// single-cycle traces, lengths one short of a word and many words long,
// and a cycle count indivisible by 64 carrying lead-violating,
// ring-wrapping, and schedule-escaping events.
func adversarialTraces(t testing.TB) map[string]*Timing {
	traces := map[string]*Timing{}

	// Zero cycles: both engines return results on the empty trace.
	traces["zero-cycle"] = craftTiming(t, nil, nil)

	// Lengths that end one bit short of a word and that span many words.
	for _, n := range []int{63, 1000} {
		traces[fmt.Sprintf("%d-cycle", n)] = varyingTrace(t, n)
	}

	// All-zero usage, partial tail word.
	traces["all-zero"] = craftTiming(t, make([]cpu.Usage, 100), nil)

	// Saturated masks and over-capacity counts every cycle: the default
	// machine has 6/2/4/4 units, 2 ports, issue width 8 — every cycle
	// violates every structure class, in a full 64-cycle word.
	sat := make([]cpu.Usage, 64)
	for c := range sat {
		sat[c] = cpu.Usage{
			IntALUBusy: ^uint32(0), IntMultBusy: ^uint32(0),
			FPALUBusy: ^uint32(0), FPMultBusy: ^uint32(0),
			DPortUsed: 5, ResultBus: 20, FetchCount: 8, WindowOccupancy: 128,
			// Stage 0 is over-width (9 > issue width 8) but the total stays
			// within aggregate capacity, so Validate accepts the accounting
			// while the over-full latch plane still fires every cycle.
			BackLatch: []int{9, 8, 8, 8, 7},
		}
	}
	traces["saturated"] = craftTiming(t, sat, nil)

	// Single cycle.
	traces["single-cycle"] = craftTiming(t, []cpu.Usage{{
		IssueCount: 1, IntALUBusy: 1, FetchCount: 3, WindowOccupancy: 40,
	}}, nil)

	// 131 cycles (tail word), scripted events: a covered grant, a
	// zero-lead (violating) event, a far-future ring-wrapping latency,
	// usage escaping the schedule, and a unit index past the pool size
	// (exercising the 32-bit mask shift semantics both engines share).
	n := 131
	usages := make([]cpu.Usage, n)
	for c := range usages {
		usages[c] = cpu.Usage{
			IssueCount: c % 4, CommitCount: c % 5, FetchCount: c % 9,
			WindowOccupancy: c % 129,
			BackLatch:       []int{c % 3, c % 4, c % 5, c % 2, c % 7},
		}
	}
	for c := 7; c <= 9; c++ {
		usages[c].IntALUBusy = 1 << 2
	}
	usages[12].IntALUBusy = 1 << 3 // never granted: schedule violation
	usages[20].DPortUsed = 1       // covered by the scheduled load
	usages[21].DPortUsed = 1       // not covered
	usages[30].ResultBus = 1       // covered writeback
	events := map[int][]cpu.IssueEvent{
		5: {{
			FUIdx: 2, FUType: cpu.FUIntALU, FUStart: 7, FULat: 3,
			IsLoad: true, DPortCycle: 20,
			WritesReg: true, ResultBusCycle: 30,
		}},
		40: {{ // zero lead on all three aspects
			FUIdx: 0, FUType: cpu.FUIntMult, FUStart: 40, FULat: 1,
			IsLoad: true, DPortCycle: 40,
			WritesReg: true, ResultBusCycle: 40,
		}},
		50: {{ // latency far past the schedule horizon
			FUIdx: 1, FUType: cpu.FUFPALU, FUStart: 52, FULat: 3 * 8192,
		}},
		60: {{ // unit index beyond any pool: both engines shift it out
			FUIdx: 40, FUType: cpu.FUFPMult, FUStart: 62, FULat: 2,
		}},
	}
	traces["tail-word-events"] = craftTiming(t, usages, events)
	return traces
}

// TestPackedReplayRouting pins the automatic routing and its counters:
// eligible sets ride the packed kernel, and a machine-mismatched scheme in
// a mixed set falls back to the scalar engine alone (split-set routing)
// while the eligible schemes around it stay packed.
func TestPackedReplayRouting(t *testing.T) {
	sim := NewSimulator(DefaultMachine())
	sim.Warmup = 10_000
	tm, err := sim.CaptureBenchmark("gzip", 20_000)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []SchemeKind{SchemeNone, SchemeDCG, SchemeOracle}

	packed0 := PackedReplaySchemes()
	fallback0 := PackedReplayFallbacks()
	fused0 := usagetrace.FusedSchemes()

	if _, err := sim.EvaluateTimingAll(tm, kinds); err != nil {
		t.Fatal(err)
	}
	if got := PackedReplaySchemes() - packed0; got != uint64(len(kinds)) {
		t.Fatalf("packed-scheme counter advanced %d, want %d", got, len(kinds))
	}
	if got := usagetrace.FusedSchemes() - fused0; got != 0 {
		t.Fatalf("packed evaluation fed %d sinks through the scalar engine, want 0", got)
	}
	if got := PackedReplayFallbacks() - fallback0; got != 0 {
		t.Fatalf("eligible set recorded %d fallbacks, want 0", got)
	}

	// A scheme built for a foreign machine between two eligible ones:
	// ineligible, so the automatic route splits the set — the eligible
	// schemes still ride the packed kernel while only the mismatched one
	// takes the scalar engine.
	mixed := mixedSchemes()
	results, err := sim.EvaluateTimingSchemes(tm, mixed)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(mixed) {
		t.Fatalf("fallback evaluation returned %d results, want %d", len(results), len(mixed))
	}
	if got := PackedReplayFallbacks() - fallback0; got != 1 {
		t.Fatalf("fallback counter advanced %d, want 1 (only the mismatched scheme)", got)
	}
	if got := PackedReplaySchemes() - packed0; got != uint64(len(kinds))+2 {
		t.Fatalf("packed-scheme counter advanced %d, want %d (eligible two of the mixed set)",
			got, len(kinds)+2)
	}
	if got := usagetrace.FusedSchemes() - fused0; got != 1 {
		t.Fatalf("fallback fed %d scalar sinks, want 1", got)
	}
	reference, err := sim.EvaluateScalar(tm, []gating.Scheme{gating.NewDCG(DefaultMachine())})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "fallback/dcg", reference[0], results[0])
}

// mixedSchemes builds a mixed set: a scheme built for a foreign machine
// between two packed-eligible ones.
func mixedSchemes() []gating.Scheme {
	other := DefaultMachine()
	other.IssueWidth = 4
	return []gating.Scheme{
		gating.NewDCG(DefaultMachine()),
		gating.NewDCG(other),
		gating.NewOracle(DefaultMachine()),
	}
}

// TestParallelReplayMixedSetSplit drives the split-set routing with a
// genuinely mixed set — packed-eligible schemes around a
// machine-mismatched one — checking every result stays identical to the
// scalar engine's.
func TestParallelReplayMixedSetSplit(t *testing.T) {
	sim := NewSimulator(DefaultMachine())
	tm, err := sim.CaptureBenchmark("gzip", 20_000)
	if err != nil {
		t.Fatal(err)
	}
	reference, err := sim.EvaluateScalar(tm, mixedSchemes())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.EvaluateTimingSchemes(tm, mixedSchemes())
	if err != nil {
		t.Fatal(err)
	}
	for i := range reference {
		assertBitIdentical(t, fmt.Sprintf("mixed[%d]", i), reference[i], res[i])
	}
}

// TestParallelReplayShardBoundaries sweeps trace lengths that land on
// every edge of the packed planes' 64-cycle words — single cycle, one bit
// short of a word, one full word, partial tails, many words — through the
// automatic route, against the scalar engine.
func TestParallelReplayShardBoundaries(t *testing.T) {
	kinds := []SchemeKind{SchemeNone, SchemeDCG, SchemeOracle, SchemeLector}
	sim := NewSimulator(DefaultMachine())
	for _, n := range []int{1, 63, 64, 100, 131, 1000} {
		tm := varyingTrace(t, n)
		reference, err := sim.EvaluateScalar(tm, schemesOf(t, sim, kinds...))
		if err != nil {
			t.Fatalf("n=%d: scalar: %v", n, err)
		}
		res, err := sim.EvaluateTimingAll(tm, kinds)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, k := range kinds {
			assertBitIdentical(t, fmt.Sprintf("n=%d/%s", n, k), reference[i], res[i])
		}
	}
}

// TestParallelReplayZeroCycleTrace pins agreement on the degenerate
// empty trace: whatever the scalar engine does (error or zero results),
// the automatic route must do the same.
func TestParallelReplayZeroCycleTrace(t *testing.T) {
	tm := craftTiming(t, nil, nil)
	kinds := []SchemeKind{SchemeNone, SchemeDCG}
	sim := NewSimulator(DefaultMachine())
	refRes, refErr := sim.EvaluateScalar(tm, schemesOf(t, sim, kinds...))
	res, err := sim.EvaluateTimingAll(tm, kinds)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("err = %v, scalar err = %v", err, refErr)
	}
	if err != nil {
		return
	}
	for i, k := range kinds {
		assertBitIdentical(t, "zero-cycle/"+k.String(), refRes[i], res[i])
	}
}
