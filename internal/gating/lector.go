package gating

import (
	"dcg/internal/config"
	"dcg/internal/cpu"
	"dcg/internal/power"
)

// Lector implements stage-level gating after the LECTOR family
// (arXiv:1805.07409): each back-end latch stage has one coarse gate
// control driven by the stage's occupancy — an empty stage is gated
// whole, an occupied one is left fully clocked. The per-gate control
// logic is charged explicitly: every exercised stage gate costs
// 1/stages of the DCG control-block power (GateState.ControlGates),
// and when the entire back end idles the per-stage controls collapse
// into one master gate, so an all-idle cycle is charged a single
// control activation.
//
// Compared to DCG's slot-granular one-hot piping this trades precision
// for control simplicity: no schedule rings, no advance information,
// just per-stage occupancy comparators. The scheme is stateless and
// occupancy-driven, so it replays on the bit-packed kernel.
type Lector struct {
	cfg  config.Config
	full power.GateState

	// stages is the number of gatable back-end latch stages.
	stages int

	// slab backs the caller-owned BackLatchSlots slices (see intSlab).
	slab intSlab
}

// NewLector builds the stage-level occupancy-gating scheme.
func NewLector(cfg config.Config) *Lector {
	l := &Lector{cfg: cfg, stages: cfg.BackEndLatchStages()}
	ia, im, fa, fm := fullMasks(cfg)
	l.full = power.GateState{
		IntALUMask:  ia,
		IntMultMask: im,
		FPALUMask:   fa,
		FPMultMask:  fm,
		DPortsOn:    cfg.DL1.Ports,
		ResultBusOn: cfg.IssueWidth,
	}
	return l
}

// Name implements Scheme.
func (l *Lector) Name() string { return "lector" }

// Limits implements cpu.Throttle: occupancy gating never restricts the
// pipeline.
func (l *Lector) Limits(uint64, cpu.CycleFeedback) cpu.Limits {
	return cpu.FullLimits(l.cfg.IssueWidth, l.cfg.DL1.Ports,
		l.cfg.FU.IntALU, l.cfg.FU.IntMult, l.cfg.FU.FPALU, l.cfg.FU.FPMult)
}

// OnIssue implements cpu.IssueListener; stage gates need no grant
// information.
func (l *Lector) OnIssue(cpu.IssueEvent) {}

// Gates implements power.Gater: stage s is fully on when occupied, fully
// off when empty, and each gated stage exercises one gate control —
// collapsed to the single master gate when every stage idles.
func (l *Lector) Gates(cycle uint64, u *cpu.Usage) power.GateState {
	gs := l.full
	slots := l.slab.take(l.stages)
	gated := 0
	for s := range slots {
		if s < len(u.BackLatch) && u.BackLatch[s] > 0 {
			slots[s] = l.cfg.IssueWidth
		} else {
			slots[s] = 0
			gated++
		}
	}
	gs.BackLatchSlots = slots
	gs.IssueQueueFrac = 1
	if gated == l.stages && gated > 1 {
		gated = 1 // master gate: the whole back end idles
	}
	gs.ControlGates = gated
	return gs
}

// QuietLimits implements cpu.QuietThrottle: occupancy gating never
// throttles.
func (l *Lector) QuietLimits(_, n uint64) uint64 { return n }

// GatesQuiet implements power.QuietGater: the scheme is stateless, so the
// run's every cycle gets its first cycle's state.
func (l *Lector) GatesQuiet(cycle, _ uint64, u *cpu.Usage) (power.GateState, bool) {
	return l.Gates(cycle, u), true
}
