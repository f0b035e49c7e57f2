package gating

import (
	"math"
	"math/bits"
	"testing"

	"dcg/internal/config"
	"dcg/internal/cpu"
	"dcg/internal/isa"
	"dcg/internal/power"
	"dcg/internal/trace"
)

// onesCountLoop is the hand-rolled popcount DCG.Gates used to run eight
// times per simulated cycle; kept here as the benchmark reference the
// math/bits replacement is measured against.
func onesCountLoop(x uint32) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// popcountInputs mixes sparse and dense masks like the ones the gating
// hot path sees (mostly a few low bits set, occasionally dense).
var popcountInputs = [...]uint32{
	0x0, 0x1, 0x3, 0x7, 0x3f, 0x2a, 0x15, 0xff,
	0x0, 0x1, 0x0, 0x5, 0x1f, 0x0, 0x3, 0xffff,
}

var popcountSink int

func BenchmarkOnesCountLoop(b *testing.B) {
	n := 0
	for i := 0; i < b.N; i++ {
		n += onesCountLoop(popcountInputs[i&15])
	}
	popcountSink = n
}

func BenchmarkOnesCountBits(b *testing.B) {
	n := 0
	for i := 0; i < b.N; i++ {
		n += bits.OnesCount32(popcountInputs[i&15])
	}
	popcountSink = n
}

// BenchmarkDCGGates measures the full per-cycle gating decision: schedule
// read-and-retire, toggle accounting (4 popcounts of the mask deltas plus
// 4 in popcountAll), and the caller-owned slot copy.
func BenchmarkDCGGates(b *testing.B) {
	cfg := config.Default()
	d := NewDCG(cfg)
	u := &cpu.Usage{BackLatch: make([]int, cfg.BackEndLatchStages())}
	for s := range u.BackLatch {
		u.BackLatch[s] = s % cfg.IssueWidth
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cyc := uint64(i)
		d.OnIssue(cpu.IssueEvent{Cycle: cyc, FUType: cpu.FUIntALU, FUIdx: i % 6, FUStart: cyc + 2, FULat: 1})
		d.Gates(cyc, u)
	}
}

// TestGateStateSurvivesNextCycle is the regression test for the
// mutated-slice aliasing hazard: DCG.Gates used to return BackLatchSlots
// aliased to the controller's internal scratch slice, which the next
// cycle's Gates call overwrote. A consumer retaining two consecutive
// GateStates must see the first one unchanged.
func TestGateStateSurvivesNextCycle(t *testing.T) {
	cfg := config.Default()
	stages := cfg.BackEndLatchStages()

	mkUsage := func(fill int) *cpu.Usage {
		u := &cpu.Usage{BackLatch: make([]int, stages)}
		for s := range u.BackLatch {
			u.BackLatch[s] = fill
		}
		return u
	}

	schemes := []struct {
		name  string
		gater power.Gater
	}{
		{"dcg", NewDCG(cfg)},
		{"plb-ext", NewPLB(cfg, DefaultPLBParams(), true)},
		{"oracle", NewOracle(cfg)},
	}
	for _, sc := range schemes {
		first := sc.gater.Gates(10, mkUsage(3))
		held := append([]int(nil), first.BackLatchSlots...)
		heldFront := append([]int(nil), first.FrontLatchSlots...)

		second := sc.gater.Gates(11, mkUsage(0))

		for s, v := range first.BackLatchSlots {
			if v != held[s] {
				t.Errorf("%s: retained GateState corrupted at back stage %d: %d -> %d",
					sc.name, s, held[s], v)
			}
		}
		for s, v := range first.FrontLatchSlots {
			if v != heldFront[s] {
				t.Errorf("%s: retained GateState corrupted at front stage %d: %d -> %d",
					sc.name, s, heldFront[s], v)
			}
		}
		if stages > 0 && &first.BackLatchSlots[0] == &second.BackLatchSlots[0] {
			t.Errorf("%s: consecutive GateStates share a backing array", sc.name)
		}
	}
}

// longLatencyStream builds a branch-free stream dominated by loads that
// stride through an 8MB region (every access misses DL1 and L2, so each
// load waits on the 100-cycle memory behind a bounded MSHR file) with
// dependent integer and FP work mixed in. It pushes schedule writes
// thousands of cycles ahead and stretches the run far past schedHorizon.
func longLatencyStream(n int) []trace.DynInst {
	out := make([]trace.DynInst, 0, n)
	const region = 8 << 20
	for i := 0; i < n; i++ {
		var in isa.Inst
		switch i % 8 {
		case 0, 2, 6: // striding load, always a miss
			in = isa.Inst{Op: isa.OpLd, Dst: isa.IntReg(1 + i%8), Src1: isa.IntReg(30), Imm: 0}
		case 1: // ALU op dependent on the previous load
			in = isa.Inst{Op: isa.OpAdd, Dst: isa.IntReg(9 + i%8), Src1: isa.IntReg(1 + (i-1)%8), Src2: isa.IntReg(31)}
		case 3: // long-latency integer multiply on loaded data
			in = isa.Inst{Op: isa.OpMul, Dst: isa.IntReg(9 + i%8), Src1: isa.IntReg(1 + (i-1)%8), Src2: isa.IntReg(31)}
		case 4: // FP load, also striding
			in = isa.Inst{Op: isa.OpLdF, Dst: isa.FPReg(1 + i%8), Src1: isa.IntReg(30), Imm: 0}
		case 5: // FP op dependent on the FP load
			in = isa.Inst{Op: isa.OpFAdd, Dst: isa.FPReg(9 + i%8), Src1: isa.FPReg(1 + (i-1)%8), Src2: isa.FPReg(20)}
		default: // store, exercising the delayed D-port schedule
			in = isa.Inst{Op: isa.OpSt, Src1: isa.IntReg(31), Src2: isa.IntReg(30), Imm: 0}
		}
		d := trace.DynInst{PC: 0x40_0000 + uint64(i)*4, Seq: uint64(i), Inst: in}
		if in.Class().IsMem() {
			d.EA = 0x1000_0000 + uint64(i*64)%region
		}
		out = append(out, d)
	}
	return out
}

// wrapChecker verifies, cycle by cycle, that the DCG schedule read out of
// the ring exactly matches what the core actually did: no stale entry may
// enable a unit, port, or bus in a cycle the core reports it idle, and
// nothing the core used may be gated. Exercised far past schedHorizon so
// ring wraparound is covered.
type wrapChecker struct {
	t   *testing.T
	d   *DCG
	bad int
}

func (w *wrapChecker) OnCycle(u *cpu.Usage) {
	gs := w.d.Gates(u.Cycle, u)
	if w.bad > 8 {
		return // enough detail to diagnose
	}
	if gs.IntALUMask != u.IntALUBusy || gs.IntMultMask != u.IntMultBusy ||
		gs.FPALUMask != u.FPALUBusy || gs.FPMultMask != u.FPMultBusy {
		w.bad++
		w.t.Errorf("cycle %d: FU enables (%#x %#x %#x %#x) != busy (%#x %#x %#x %#x)",
			u.Cycle, gs.IntALUMask, gs.IntMultMask, gs.FPALUMask, gs.FPMultMask,
			u.IntALUBusy, u.IntMultBusy, u.FPALUBusy, u.FPMultBusy)
	}
	if gs.DPortsOn != u.DPortUsed {
		w.bad++
		w.t.Errorf("cycle %d: %d D-ports enabled, %d used", u.Cycle, gs.DPortsOn, u.DPortUsed)
	}
	if gs.ResultBusOn != u.ResultBus {
		w.bad++
		w.t.Errorf("cycle %d: %d result buses enabled, %d driven", u.Cycle, gs.ResultBusOn, u.ResultBus)
	}
	for s, n := range gs.BackLatchSlots {
		if s < len(u.BackLatch) && n != u.BackLatch[s] {
			w.bad++
			w.t.Errorf("cycle %d: latch stage %d enables %d slots, flow is %d",
				u.Cycle, s, n, u.BackLatch[s])
		}
	}
}

func TestSchedHorizonWraparound(t *testing.T) {
	cfg := config.Default()
	d := NewDCG(cfg)
	src := trace.NewSliceSource("wraparound", longLatencyStream(6000))
	c, err := cpu.New(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	c.SetThrottle(d)
	c.SetIssueListener(d)
	c.SetObserver(&wrapChecker{t: t, d: d})
	if _, err := c.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	cycles := c.Stats().Cycles
	if cycles <= 2*schedHorizon {
		t.Fatalf("run lasted %d cycles; need > %d to cover ring wraparound", cycles, 2*schedHorizon)
	}
	if d.LeadViolations != 0 {
		t.Errorf("LeadViolations = %d, want 0", d.LeadViolations)
	}
}

// TestDCGFUSpanIsBounded: a grant marks usagetrace.SchedSpan of its
// latency, so a latency past any ring revolution enables the unit in
// every slot, a negative one in none, and neither loops over the
// latency itself.
func TestDCGFUSpanIsBounded(t *testing.T) {
	cfg := config.Default()
	for lat, want := range map[int]uint32{math.MaxInt: 1, -3: 0} {
		d := NewDCG(cfg)
		d.OnIssue(cpu.IssueEvent{FUIdx: 0, FUType: cpu.FUIntALU, FUStart: 2, FULat: lat})
		u := cpu.Usage{BackLatch: make([]int, cfg.BackEndLatchStages())}
		for _, c := range []uint64{1, 2, schedHorizon - 1, schedHorizon} {
			if got := d.Gates(c, &u).IntALUMask; got != want {
				t.Errorf("latency %d: cycle %d IntALU mask %b, want %b", lat, c, got, want)
			}
		}
	}
}
