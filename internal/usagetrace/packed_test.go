package usagetrace

import (
	"bytes"
	"math/bits"
	"testing"

	"dcg/internal/cpu"
)

// craftTrace captures a fully scripted trace: usages[c] is cycle c's
// usage vector (Cycle and BackLatch length are fixed up here), events[c]
// the issue events delivered before it.
func craftTrace(t *testing.T, stages int, usages []cpu.Usage, events map[int][]cpu.IssueEvent) *Trace {
	t.Helper()
	rec, err := NewRecorder("crafted", stages)
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
		rec.OnCycle(&u)
	}
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func bit(plane []uint64, c int) bool {
	return plane[c>>6]&(1<<(uint(c)&63)) != 0
}

// TestPackedPlanesMatchScalarColumns brute-force checks every usage
// plane bit against its scalar-column predicate, on a trace sized so the
// last word is partial (tail-word case) and busy/latch/port patterns
// vary per cycle.
func TestPackedPlanesMatchScalarColumns(t *testing.T) {
	const stages = 3
	const n = 131 // 3 words, 3 live bits in the tail word
	usages := make([]cpu.Usage, n)
	for c := range usages {
		usages[c] = cpu.Usage{
			IssueCount:      c % 3,
			CommitCount:     (c + 1) % 4,
			IntALUBusy:      uint32(c) & 0x3f,
			IntMultBusy:     uint32(c>>1) & 0x3,
			FPALUBusy:       uint32(c>>2) & 0xf,
			FPMultBusy:      uint32(c>>3) & 0xf,
			DPortUsed:       c % 3,
			ResultBus:       c % 5,
			FetchCount:      c % 9,
			WindowOccupancy: c % 129,
			BackLatch:       []int{c % 2, c % 7, c % 9},
		}
	}
	tr := craftTrace(t, stages, usages, nil)
	p, err := tr.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if p == nil {
		t.Fatal("decode produced no packed view")
	}
	if p.Cycles() != n || p.Words() != (n+63)/64 {
		t.Fatalf("packed geometry %d cycles / %d words, want %d / %d", p.Cycles(), p.Words(), n, (n+63)/64)
	}

	busyPlanes := [cpu.NumFUTypes][]uint64{
		p.FUBusyPlane(cpu.FUIntALU), p.FUBusyPlane(cpu.FUIntMult),
		p.FUBusyPlane(cpu.FUFPALU), p.FUBusyPlane(cpu.FUFPMult),
	}
	for c := 0; c < n; c++ {
		u := &usages[c]
		busy := [cpu.NumFUTypes]uint32{u.IntALUBusy, u.IntMultBusy, u.FPALUBusy, u.FPMultBusy}
		for ft := 0; ft < int(cpu.NumFUTypes); ft++ {
			if got, want := bit(busyPlanes[ft], c), busy[ft] != 0; got != want {
				t.Fatalf("cycle %d: fu-busy[%d] plane bit %v, column says %v", c, ft, got, want)
			}
		}
		if got, want := bit(p.DPortUsePlane(), c), u.DPortUsed > 0; got != want {
			t.Fatalf("cycle %d: dport-use plane bit %v, column says %v", c, got, want)
		}
		if got, want := bit(p.IssueNonEmptyPlane(), c), u.IssueCount != 0; got != want {
			t.Fatalf("cycle %d: issue plane bit %v, column says %v", c, got, want)
		}
		if got, want := bit(p.CommitNonEmptyPlane(), c), u.CommitCount != 0; got != want {
			t.Fatalf("cycle %d: commit plane bit %v, column says %v", c, got, want)
		}
		for s := 0; s < stages; s++ {
			if got, want := bit(p.LatchNonZeroPlane(s), c), u.BackLatch[s] != 0; got != want {
				t.Fatalf("cycle %d: latch[%d] plane bit %v, column says %v", c, s, got, want)
			}
		}
	}

	// Tail-word discipline: every bit at position >= n in the last word
	// is zero, on every plane (kernels rely on this to popcount without
	// masking).
	planes := append([][]uint64{
		p.DPortUsePlane(), p.IssueNonEmptyPlane(), p.CommitNonEmptyPlane(),
		p.UnitSchedViolationPlane(), p.DPortSchedViolationPlane(), p.BusSchedViolationPlane(),
	}, busyPlanes[:]...)
	for s := 0; s < stages; s++ {
		planes = append(planes, p.LatchNonZeroPlane(s))
	}
	liveTail := uint(n) % 64
	tailMask := ^uint64(0) << liveTail
	for i, plane := range planes {
		if plane[len(plane)-1]&tailMask != 0 {
			t.Fatalf("plane %d has live bits past cycle %d in the tail word: %064b", i, n, plane[len(plane)-1])
		}
	}

	// No events were issued, so every used structure escapes the (empty)
	// schedule: the violation planes must mark exactly the use cycles,
	// and the schedule aggregates must be zero.
	for c := 0; c < n; c++ {
		u := &usages[c]
		anyBusy := u.IntALUBusy|u.IntMultBusy|u.FPALUBusy|u.FPMultBusy != 0
		if got := bit(p.UnitSchedViolationPlane(), c); got != anyBusy {
			t.Fatalf("cycle %d: unit violation bit %v, want %v", c, got, anyBusy)
		}
		if got, want := bit(p.DPortSchedViolationPlane(), c), u.DPortUsed > 0; got != want {
			t.Fatalf("cycle %d: dport violation bit %v, want %v", c, got, want)
		}
		if got, want := bit(p.BusSchedViolationPlane(), c), u.ResultBus > 0; got != want {
			t.Fatalf("cycle %d: bus violation bit %v, want %v", c, got, want)
		}
	}
	for ft := cpu.FUType(0); ft < cpu.NumFUTypes; ft++ {
		if p.UnitSchedOnSum(ft) != 0 {
			t.Fatalf("eventless trace has non-zero unit schedule sum for pool %d", ft)
		}
	}
	if p.DPortSchedSum() != 0 || p.LeadViolations() != 0 {
		t.Fatalf("eventless trace has schedule sums %d / lead %d", p.DPortSchedSum(), p.LeadViolations())
	}
	if sum, ok := p.BusSchedCappedSum(8); !ok || sum != 0 {
		t.Fatalf("eventless bus sum = %d, %v", sum, ok)
	}

	// Aggregates against brute force.
	var wantLatch, wantFetch int64
	for c := range usages {
		for _, v := range usages[c].BackLatch {
			wantLatch += int64(v)
		}
		wantFetch += int64(usages[c].FetchCount)
	}
	if p.BackLatchSum() != wantLatch {
		t.Fatalf("BackLatchSum = %d, want %d", p.BackLatchSum(), wantLatch)
	}
	for _, depth := range []int{1, 2, 3, 7} {
		var want int64
		for c := 0; c < n; c++ {
			for k := 0; k < depth; k++ {
				if c-k >= 0 {
					want += int64(usages[c-k].FetchCount)
				}
			}
		}
		if got := p.FrontSlotsSum(depth); got != want {
			t.Fatalf("FrontSlotsSum(%d) = %d, want %d", depth, got, want)
		}
	}
	var wantFrac float64
	for c := 0; c < n; c++ {
		wantFrac += float64(usages[c].WindowOccupancy) / float64(128)
	}
	if got := p.IssueQueueFracSum(128); got != wantFrac {
		t.Fatalf("IssueQueueFracSum(128) = %v, want %v", got, wantFrac)
	}
	if got := p.IssueQueueFracSum(0); got != float64(n) {
		t.Fatalf("IssueQueueFracSum(0) = %v, want %v", got, float64(n))
	}
	_ = wantFetch
}

// TestPackedScheduleMirror scripts issue events — including the ring
// edge cases — and checks the mirrored schedule aggregates and violation
// planes cycle by cycle against hand-computed expectations.
func TestPackedScheduleMirror(t *testing.T) {
	const n = 70 // crosses one word boundary
	usages := make([]cpu.Usage, n)
	// Cycle 5: one scheduled IntALU unit (idx 2) busy for 3 cycles
	// starting at 5+2=7; usage at 7..9 matches the schedule exactly.
	for c := 7; c <= 9; c++ {
		usages[c].IntALUBusy = 1 << 2
	}
	// Cycle 12's usage escapes the schedule (unit 3 was never granted).
	usages[12].IntALUBusy = 1 << 3
	// A load scheduled for cycle 20; cycle 20 uses one port (covered),
	// cycle 21 uses one port with no schedule (violation).
	usages[20].DPortUsed = 1
	usages[21].DPortUsed = 1
	// Writeback scheduled for cycle 30, used at 30 (covered).
	usages[30].ResultBus = 1
	events := map[int][]cpu.IssueEvent{
		5: {{
			FUIdx: 2, FUType: cpu.FUIntALU, FUStart: 7, FULat: 3,
			IsLoad: true, DPortCycle: 20,
			WritesReg: true, ResultBusCycle: 30,
		}},
		// Lead violation on every aspect: FUStart == DPortCycle ==
		// ResultBusCycle == Cycle (the encoder stores zero deltas).
		40: {{
			FUIdx: 0, FUType: cpu.FUIntMult, FUStart: 40, FULat: 1,
			IsLoad: true, DPortCycle: 40,
			WritesReg: true, ResultBusCycle: 40,
		}},
		// Latency far past the schedule horizon: the ring-write clamp
		// must still mark every future slot (OR is idempotent across
		// wraps), covering this pool's usage for the rest of the trace.
		50: {{FUIdx: 1, FUType: cpu.FUFPALU, FUStart: 52, FULat: 3 * SchedHorizon}},
	}
	for c := 52; c < n; c++ {
		usages[c].FPALUBusy = 1 << 1
	}

	tr := craftTrace(t, 1, usages, events)
	p, err := tr.Decode()
	if err != nil {
		t.Fatal(err)
	}

	if got := p.LeadViolations(); got != 3 {
		t.Fatalf("lead violations = %d, want 3 (one per late aspect)", got)
	}
	// IntALU schedule: unit 2 enabled cycles 7-9 -> popcount sum 3.
	if got := p.UnitSchedOnSum(cpu.FUIntALU); got != 3 {
		t.Fatalf("IntALU schedule sum = %d, want 3", got)
	}
	// IntMult: the lead-violating event still schedules cycle 40 (the
	// controller writes the ring regardless) -> sum 1.
	if got := p.UnitSchedOnSum(cpu.FUIntMult); got != 1 {
		t.Fatalf("IntMult schedule sum = %d, want 1", got)
	}
	// FPALU: a latency >= the horizon writes every ring slot (one full
	// revolution), so the schedule reads back enabled from the issuing
	// cycle 50 — whose own slot the wrap covered — to the end of the
	// trace: n-50 enabled cycles, exactly what the real controller's
	// unclamped triple revolution would produce.
	if got := p.UnitSchedOnSum(cpu.FUFPALU); got != int64(n-50) {
		t.Fatalf("FPALU schedule sum = %d, want %d", got, n-50)
	}
	// D-port schedule: cycles 20 and 40 -> sum 2.
	if got := p.DPortSchedSum(); got != 2 {
		t.Fatalf("dport schedule sum = %d, want 2", got)
	}
	// Bus schedule: cycles 30 and 40 -> capped sum 2 under any cap >= 1.
	if sum, ok := p.BusSchedCappedSum(8); !ok || sum != 2 {
		t.Fatalf("bus capped sum = %d, %v, want 2, true", sum, ok)
	}

	// Violation planes: unit violations exactly at cycle 12 (usage
	// escaped schedule); dport at 21; bus nowhere.
	for c := 0; c < n; c++ {
		if got, want := bit(p.UnitSchedViolationPlane(), c), c == 12; got != want {
			t.Fatalf("cycle %d: unit violation %v, want %v", c, got, want)
		}
		if got, want := bit(p.DPortSchedViolationPlane(), c), c == 21; got != want {
			t.Fatalf("cycle %d: dport violation %v, want %v", c, got, want)
		}
		if got := bit(p.BusSchedViolationPlane(), c); got {
			t.Fatalf("cycle %d: unexpected bus violation", c)
		}
	}
	if got := p.ViolationCycles(p.UnitSchedViolationPlane(), p.DPortSchedViolationPlane(), p.BusSchedViolationPlane()); got != 2 {
		t.Fatalf("ViolationCycles = %d, want 2", got)
	}
}

// TestPackedOverFullPlanes drives the lazy capacity-violation planes:
// nil (proven impossible) under generous limits, exact bit patterns
// under tight ones.
func TestPackedOverFullPlanes(t *testing.T) {
	const n = 65 // one full word + 1-bit tail
	usages := make([]cpu.Usage, n)
	usages[3].IntALUBusy = 0xFFFFFFFF // saturated mask
	usages[10].DPortUsed = 5
	usages[11].ResultBus = 20
	usages[12].BackLatch = []int{9, 0}
	tr := craftTrace(t, 2, usages, nil)
	p, err := tr.Decode()
	if err != nil {
		t.Fatal(err)
	}

	// Generous limits: every plane proves itself unnecessary without a
	// scan (the maxima guards).
	if p.OverFullUnits([cpu.NumFUTypes]int{32, 1, 1, 1}) != nil {
		t.Error("OverFullUnits not nil under full-width pool")
	}
	if p.OverFullDPorts(5) != nil || p.OverFullBus(20) != nil || p.OverFullLatch(9) != nil {
		t.Error("over-full planes not nil under generous limits")
	}

	// Tight limits: exactly the scripted cycles fire.
	checks := []struct {
		name  string
		plane []uint64
		want  int
	}{
		{"units", p.OverFullUnits([cpu.NumFUTypes]int{6, 2, 4, 4}), 3},
		{"dports", p.OverFullDPorts(2), 10},
		{"bus", p.OverFullBus(8), 11},
		{"latch", p.OverFullLatch(8), 12},
	}
	for _, tc := range checks {
		if tc.plane == nil {
			t.Fatalf("%s: plane nil under tight limits", tc.name)
		}
		var total int
		for _, w := range tc.plane {
			total += bits.OnesCount64(w)
		}
		if total != 1 || !bit(tc.plane, tc.want) {
			t.Errorf("%s: plane bits = %d (bit %d set: %v), want only cycle %d",
				tc.name, total, tc.want, bit(tc.plane, tc.want), tc.want)
		}
	}
	if got := p.ViolationCycles(checks[0].plane, checks[1].plane, checks[2].plane, checks[3].plane, nil); got != 4 {
		t.Errorf("ViolationCycles over four distinct cycles = %d, want 4", got)
	}
}

// TestPackedSingleCycle pins the smallest geometry: one cycle, one word.
func TestPackedSingleCycle(t *testing.T) {
	tr := craftTrace(t, 1, []cpu.Usage{{IssueCount: 1, FetchCount: 4, WindowOccupancy: 7}}, nil)
	p, err := tr.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if p.Cycles() != 1 || p.Words() != 1 {
		t.Fatalf("geometry %d/%d, want 1/1", p.Cycles(), p.Words())
	}
	if !bit(p.IssueNonEmptyPlane(), 0) {
		t.Error("issue plane bit 0 clear")
	}
	// The single fetch is seen only by stage 0 before the run ends: the
	// closed form's tail correction must cut depth x fetch down to 1 x.
	if got := p.FrontSlotsSum(3); got != 4 {
		t.Errorf("FrontSlotsSum(3) = %d, want 4 (the fetch never reaches stages 1-2)", got)
	}
	if got := p.IssueQueueFracSum(128); got != 7.0/128 {
		t.Errorf("frac sum = %v, want %v", got, 7.0/128)
	}
}

// TestPackedSurvivesSerialisation: the packed view is rebuilt identically
// from a serialised round trip (it is derived state, but the derivation
// must be deterministic), and ReadTrace's validating pass is the only
// parse: the Decode after it is a reuse.
func TestPackedSurvivesSerialisation(t *testing.T) {
	usages := make([]cpu.Usage, 100)
	for c := range usages {
		usages[c] = cpu.Usage{IssueCount: c % 2, DPortUsed: c % 3, ResultBus: c % 4}
	}
	tr := craftTrace(t, 1, usages, map[int][]cpu.IssueEvent{
		1: {{FUIdx: 0, FUType: cpu.FUIntALU, FUStart: 3, FULat: 2}},
	})
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	p1, err := tr.Decode()
	if err != nil {
		t.Fatal(err)
	}
	decodes0, reuses0 := Decodes(), DecodeReuses()
	tr2, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := tr2.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if got := Decodes() - decodes0; got != 1 {
		t.Fatalf("ReadTrace + Decode ran %d passes over the stream, want 1", got)
	}
	if got := DecodeReuses() - reuses0; got != 1 {
		t.Fatalf("Decode after ReadTrace counted %d reuses, want 1", got)
	}
	if again, _ := tr2.Decode(); again != p2 {
		t.Fatal("a repeated Decode returned a different packed view")
	}
	if p1.Cycles() != p2.Cycles() || p1.LeadViolations() != p2.LeadViolations() ||
		p1.DPortSchedSum() != p2.DPortSchedSum() || p1.BackLatchSum() != p2.BackLatchSum() {
		t.Fatal("packed aggregates diverge across serialisation")
	}
	for ft := cpu.FUType(0); ft < cpu.NumFUTypes; ft++ {
		if p1.UnitSchedOnSum(ft) != p2.UnitSchedOnSum(ft) {
			t.Fatalf("pool %d schedule sum diverges", ft)
		}
		for w := range p1.FUBusyPlane(ft) {
			if p1.FUBusyPlane(ft)[w] != p2.FUBusyPlane(ft)[w] {
				t.Fatalf("pool %d busy plane word %d diverges", ft, w)
			}
		}
	}
}
