package gating

import (
	"dcg/internal/config"
	"dcg/internal/cpu"
	"dcg/internal/power"
)

// DDCG implements data-dependent clock gating for the back-end pipeline
// latches (after arXiv:1806.02271): a latch whose input equals its
// current output need not be clocked even when an instruction occupies
// the slot, so each slot latch is enabled only when it would capture a
// new value. The per-lane value comparators live in the core (which
// records per-stage value-change counts into Usage.BackLatchNewVal, the
// trace's latchvalue channel); the scheme gates to exactly those counts.
//
// Everything outside the back-end latches stays fully clocked: DDCG is
// the latch-only ablation of the value-dependent idea, composable with
// DCG's schedule-driven gating via the dcg+ddcg hybrid. Like DCG it
// needs gate-control distribution, so it carries the control overhead,
// and like DCG it never throttles the pipeline.
type DDCG struct {
	cfg  config.Config
	full power.GateState

	// stages is the number of gatable back-end latch stages.
	stages int

	// slab backs the caller-owned BackLatchSlots slices (see intSlab).
	slab intSlab

	stats DDCGStats
}

// DDCGStats summarises the value comparators' gating activity.
type DDCGStats struct {
	Cycles uint64

	// ValueGatedSlotCycles counts occupied slot-cycles whose latch was
	// gated because the value did not change; SlotCyclesOn counts the
	// enabled (value-changing) slot-cycles.
	ValueGatedSlotCycles uint64
	SlotCyclesOn         uint64
}

// NewDDCG builds the data-dependent latch-gating scheme.
func NewDDCG(cfg config.Config) *DDCG {
	d := &DDCG{cfg: cfg, stages: cfg.BackEndLatchStages()}
	ia, im, fa, fm := fullMasks(cfg)
	d.full = power.GateState{
		IntALUMask:  ia,
		IntMultMask: im,
		FPALUMask:   fa,
		FPMultMask:  fm,
		DPortsOn:    cfg.DL1.Ports,
		ResultBusOn: cfg.IssueWidth,
	}
	return d
}

// Name implements Scheme.
func (d *DDCG) Name() string { return "ddcg" }

// Limits implements cpu.Throttle: value-dependent gating never restricts
// the pipeline.
func (d *DDCG) Limits(uint64, cpu.CycleFeedback) cpu.Limits {
	return cpu.FullLimits(d.cfg.IssueWidth, d.cfg.DL1.Ports,
		d.cfg.FU.IntALU, d.cfg.FU.IntMult, d.cfg.FU.FPALU, d.cfg.FU.FPMult)
}

// OnIssue implements cpu.IssueListener; the comparators live in the core,
// not here, so grants carry no extra information.
func (d *DDCG) OnIssue(cpu.IssueEvent) {}

// Gates implements power.Gater: each latch stage's enabled slot count is
// its value-change count. On a trace without the latchvalue channel
// (u.BackLatchNewVal nil) the scheme degrades soundly to occupancy
// gating — core-level channel validation prevents that in practice.
func (d *DDCG) Gates(cycle uint64, u *cpu.Usage) power.GateState {
	gs := d.full
	slots := d.slab.take(d.stages)
	src := u.BackLatchNewVal
	if src == nil {
		src = u.BackLatch
	}
	copy(slots, src)
	gs.BackLatchSlots = slots
	gs.IssueQueueFrac = 1
	gs.ControlOverhead = true
	gs.ValueGatedLatches = true

	d.count(src, u, 1)
	return gs
}

// count adds n cycles with usage u, whose latches were gated to the
// value-change counts src, to the comparators' activity summary.
func (d *DDCG) count(src []int, u *cpu.Usage, n uint64) {
	d.stats.Cycles += n
	for s := 0; s < d.stages; s++ {
		on := uint64(0)
		if s < len(src) {
			on = uint64(src[s])
		}
		d.stats.SlotCyclesOn += n * on
		if s < len(u.BackLatch) && uint64(u.BackLatch[s]) > on {
			d.stats.ValueGatedSlotCycles += n * (uint64(u.BackLatch[s]) - on)
		}
	}
}

// QuietLimits implements cpu.QuietThrottle: value-dependent gating never
// throttles.
func (d *DDCG) QuietLimits(_, n uint64) uint64 { return n }

// GatesQuiet implements power.QuietGater: the gate state depends on the
// usage alone, so the run's every cycle gets its first cycle's state.
func (d *DDCG) GatesQuiet(cycle, n uint64, u *cpu.Usage) (power.GateState, bool) {
	gs := d.Gates(cycle, u)
	d.count(gs.BackLatchSlots, u, n-1)
	return gs, true
}

// Stats returns the comparators' activity summary.
func (d *DDCG) Stats() DDCGStats { return d.stats }
