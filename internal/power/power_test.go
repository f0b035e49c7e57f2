package power

import (
	"math"
	"testing"
	"testing/quick"

	"dcg/internal/config"
	"dcg/internal/cpu"
)

func model(t *testing.T) *Model {
	t.Helper()
	m, err := NewModel(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestModelFractionsSane(t *testing.T) {
	m := model(t)
	total := 0.0
	for c := Component(0); c < NumComponents; c++ {
		if c == CompDCGControl {
			continue
		}
		if m.PerCycle(c) <= 0 {
			t.Errorf("component %v has non-positive power", c)
		}
		total += m.PerCycle(c)
	}
	if math.Abs(total-m.AllOnPower()) > 1e-6 {
		t.Errorf("component sum %f != AllOnPower %f", total, m.AllOnPower())
	}
}

func TestDecoderShareOfDCache(t *testing.T) {
	// Section 5.4: wordline decoders are ~40% of total D-cache power.
	m := model(t)
	frac := m.PerCycle(CompDCacheDecoder) / m.DCachePower()
	if frac < 0.30 || frac < 0 || frac > 0.50 {
		t.Errorf("decoder share of D-cache = %.2f, want ~0.40", frac)
	}
}

func TestDCGControlIsOnePercentOfLatches(t *testing.T) {
	// Section 5.3: the extended control latches cost ~1% of latch power.
	m := model(t)
	frac := m.PerCycle(CompDCGControl) / m.LatchPower()
	if math.Abs(frac-0.01) > 1e-9 {
		t.Errorf("DCG control overhead = %.4f of latch power, want 0.01", frac)
	}
}

func TestClockAndLatchShare(t *testing.T) {
	// Clock-related power (global tree + latch clock power) should be in
	// the paper's 30-35% band, within tolerance.
	m := model(t)
	clockish := m.PerCycle(CompClockTree) + m.LatchPower()
	frac := clockish / m.AllOnPower()
	if frac < 0.20 || frac > 0.40 {
		t.Errorf("clock-related share = %.2f, want ~0.30", frac)
	}
}

func TestDeepPipelineLatchPowerScales(t *testing.T) {
	base := model(t)
	deep, err := NewModel(config.Deep())
	if err != nil {
		t.Fatal(err)
	}
	if deep.LatchPower() <= base.LatchPower() {
		t.Error("20-stage pipeline should have more latch power")
	}
	ratio := deep.LatchPower() / base.LatchPower()
	want := float64(config.Deep().TotalLatchStages()) / float64(config.Default().TotalLatchStages())
	if math.Abs(ratio-want) > 1e-9 {
		t.Errorf("latch power ratio = %.3f, want %.3f", ratio, want)
	}
	if deep.AllOnPower() <= base.AllOnPower() {
		t.Error("deeper pipeline should raise total power")
	}
}

func TestGatingQuantaConsistent(t *testing.T) {
	m := model(t)
	cfg := config.Default()
	if got := m.IntALUUnit * float64(cfg.FU.IntALU); math.Abs(got-m.PerCycle(CompIntALU)) > 1e-9 {
		t.Error("IntALU quanta inconsistent with block power")
	}
	if got := m.DecoderPort * float64(cfg.DL1.Ports); math.Abs(got-m.PerCycle(CompDCacheDecoder)) > 1e-9 {
		t.Error("decoder quanta inconsistent")
	}
	if got := m.LatchSlot * float64(cfg.IssueWidth*m.BackLatchStages); math.Abs(got-m.PerCycle(CompLatchBack)) > 1e-9 {
		t.Error("latch slot quanta inconsistent")
	}
	if got := m.ResultBusUnit * float64(cfg.IssueWidth); math.Abs(got-m.PerCycle(CompResultBus)) > 1e-9 {
		t.Error("result bus quanta inconsistent")
	}
}

// allOnGater keeps everything clocked.
type allOnGater struct {
	cfg   config.Config
	slots []int
}

func newAllOn(cfg config.Config) *allOnGater {
	g := &allOnGater{cfg: cfg, slots: make([]int, cfg.BackEndLatchStages())}
	for i := range g.slots {
		g.slots[i] = cfg.IssueWidth
	}
	return g
}

func (g *allOnGater) Gates(uint64, *cpu.Usage) GateState {
	return GateState{
		IntALUMask:     0x3F,
		IntMultMask:    0x3,
		FPALUMask:      0xF,
		FPMultMask:     0xF,
		BackLatchSlots: g.slots,
		DPortsOn:       g.cfg.DL1.Ports,
		ResultBusOn:    g.cfg.IssueWidth,
		IssueQueueFrac: 1,
	}
}

func TestAccountantBaselineEqualsAllOn(t *testing.T) {
	cfg := config.Default()
	m := model(t)
	a := NewAccountant(m, newAllOn(cfg))
	u := &cpu.Usage{BackLatch: make([]int, cfg.BackEndLatchStages())}
	for cyc := uint64(0); cyc < 100; cyc++ {
		u.Cycle = cyc
		a.OnCycle(u)
	}
	if math.Abs(a.AvgPower()-m.AllOnPower()) > 1e-6 {
		t.Errorf("all-on average power %.2f != baseline %.2f", a.AvgPower(), m.AllOnPower())
	}
	if a.Saving() > 1e-9 || a.Saving() < -1e-9 {
		t.Errorf("all-on saving = %v, want 0", a.Saving())
	}
	if err := a.Validate(); err != nil {
		t.Error(err)
	}
}

// offGater gates everything gatable.
type offGater struct{ slots []int }

func (g *offGater) Gates(uint64, *cpu.Usage) GateState {
	return GateState{BackLatchSlots: g.slots, IssueQueueFrac: 1}
}

func TestAccountantFullGating(t *testing.T) {
	cfg := config.Default()
	m := model(t)
	a := NewAccountant(m, &offGater{slots: make([]int, cfg.BackEndLatchStages())})
	u := &cpu.Usage{BackLatch: make([]int, cfg.BackEndLatchStages())}
	for cyc := uint64(0); cyc < 100; cyc++ {
		u.Cycle = cyc
		a.OnCycle(u)
	}
	// Saving equals the gatable fraction of the machine.
	gatable := m.PerCycle(CompIntALU) + m.PerCycle(CompIntMult) +
		m.PerCycle(CompFPALU) + m.PerCycle(CompFPMult) +
		m.PerCycle(CompLatchBack) + m.PerCycle(CompDCacheDecoder) +
		m.PerCycle(CompResultBus)
	want := gatable / m.AllOnPower()
	if math.Abs(a.Saving()-want) > 1e-9 {
		t.Errorf("full-gating saving = %.4f, want %.4f", a.Saving(), want)
	}
	if err := a.Validate(); err != nil {
		t.Error(err)
	}
}

func TestAccountantDetectsViolations(t *testing.T) {
	cfg := config.Default()
	m := model(t)
	a := NewAccountant(m, &offGater{slots: make([]int, cfg.BackEndLatchStages())})
	u := &cpu.Usage{
		BackLatch:  make([]int, cfg.BackEndLatchStages()),
		IntALUBusy: 1, // unit 0 busy but gated
	}
	a.OnCycle(u)
	if a.GateViolations != 1 {
		t.Fatalf("violations = %d, want 1", a.GateViolations)
	}
	// Latch violation path.
	a2 := NewAccountant(m, &offGater{slots: make([]int, cfg.BackEndLatchStages())})
	u2 := &cpu.Usage{BackLatch: make([]int, cfg.BackEndLatchStages())}
	u2.BackLatch[2] = 3
	a2.OnCycle(u2)
	if a2.GateViolations != 1 {
		t.Fatalf("latch violations = %d, want 1", a2.GateViolations)
	}
}

func TestComponentSaving(t *testing.T) {
	cfg := config.Default()
	m := model(t)
	a := NewAccountant(m, &offGater{slots: make([]int, cfg.BackEndLatchStages())})
	u := &cpu.Usage{BackLatch: make([]int, cfg.BackEndLatchStages())}
	for cyc := uint64(0); cyc < 10; cyc++ {
		u.Cycle = cyc
		a.OnCycle(u)
	}
	b := a.Breakdown()
	if got := b[CompIntALU]; math.Abs(got) > 1e-9 {
		t.Errorf("fully gated component energy = %v, want 0", got)
	}
	if got, full := b[CompRegFile], 10*m.PerCycle(CompRegFile); math.Abs(got-full) > 1e-9 {
		t.Errorf("ungated component energy = %v, want all-on %v", got, full)
	}
}

// Property: for random partial gate states, per-component energy stays
// within [0, all-on] and total saving within [0, gatable fraction].
func TestQuickAccountingConservation(t *testing.T) {
	cfg := config.Default()
	m := model(t)
	f := func(masks [4]uint32, slots [5]uint8, ports, buses uint8, cycles uint8) bool {
		g := &randGater{
			gs: GateState{
				IntALUMask:     masks[0] & 0x3F,
				IntMultMask:    masks[1] & 0x3,
				FPALUMask:      masks[2] & 0xF,
				FPMultMask:     masks[3] & 0xF,
				DPortsOn:       int(ports) % (cfg.DL1.Ports + 1),
				ResultBusOn:    int(buses) % (cfg.IssueWidth + 1),
				IssueQueueFrac: 1,
				BackLatchSlots: make([]int, cfg.BackEndLatchStages()),
			},
		}
		for i := range g.gs.BackLatchSlots {
			g.gs.BackLatchSlots[i] = int(slots[i%5]) % (cfg.IssueWidth + 1)
		}
		a := NewAccountant(m, g)
		u := &cpu.Usage{BackLatch: make([]int, cfg.BackEndLatchStages())}
		n := int(cycles)%50 + 1
		for cyc := 0; cyc < n; cyc++ {
			u.Cycle = uint64(cyc)
			a.OnCycle(u)
		}
		if err := a.Validate(); err != nil {
			return false
		}
		s := a.Saving()
		return s >= -1e-9 && s <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

type randGater struct{ gs GateState }

func (g *randGater) Gates(uint64, *cpu.Usage) GateState { return g.gs }

func TestBreakdownString(t *testing.T) {
	var b Breakdown
	b[CompFetch] = 10
	b[CompIntALU] = 30
	s := b.String()
	if s == "" || b.Total() != 40 {
		t.Error("breakdown rendering broken")
	}
}

func TestModelRejectsBadConfig(t *testing.T) {
	bad := config.Default()
	bad.IssueWidth = 0
	if _, err := NewModel(bad); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestDeepControlOverheadStillOnePercent(t *testing.T) {
	deep, err := NewModel(config.Deep())
	if err != nil {
		t.Fatal(err)
	}
	frac := deep.PerCycle(CompDCGControl) / deep.LatchPower()
	if frac < 0.0099 || frac > 0.0101 {
		t.Errorf("deep control overhead = %.4f of latch power, want 0.01", frac)
	}
}

func TestWidthScalesGatedStructures(t *testing.T) {
	narrow := config.Default()
	narrow.IssueWidth = 4
	wide := config.Default()
	wide.IssueWidth = 16
	mN, err := NewModel(narrow)
	if err != nil {
		t.Fatal(err)
	}
	mW, err := NewModel(wide)
	if err != nil {
		t.Fatal(err)
	}
	if !(mW.PerCycle(CompLatchBack) > mN.PerCycle(CompLatchBack)) {
		t.Error("latch power did not scale with width")
	}
	if !(mW.PerCycle(CompResultBus) > mN.PerCycle(CompResultBus)) {
		t.Error("bus power did not scale with width")
	}
	// The per-slot quantum is width-invariant (slot = fixed bits).
	if mW.LatchSlot != mN.LatchSlot {
		t.Error("latch slot quantum changed with width")
	}
}
