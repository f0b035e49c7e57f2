// Package gating implements the paper's clock-gating methodologies:
//
//   - None: the no-clock-gating baseline every saving is measured against;
//   - DCG: deterministic clock gating (the paper's contribution) — the
//     issue stage's GRANT signals and one-hot issue encodings are piped
//     down the pipeline and gate execution units, back-end pipeline
//     latches, D-cache wordline decoders, and result-bus drivers in
//     exactly their idle cycles, with the advance knowledge guaranteeing
//     zero performance impact;
//   - PLB: pipeline balancing (the predictive comparator) — issue IPC is
//     sampled over 256-cycle windows and the machine is throttled to
//     6-wide or 4-wide issue, gating cluster-granularity resource slices
//     for whole windows, in the original (execution units + issue queue)
//     and extended (plus latches, D-cache decoders, result buses)
//     variants.
package gating

import (
	"dcg/internal/config"
	"dcg/internal/cpu"
	"dcg/internal/power"
)

// Scheme is a complete gating methodology: it may throttle the core
// (cpu.Throttle), observe issue-stage grants (cpu.IssueListener), and
// decides per-cycle gate state (power.Gater).
type Scheme interface {
	Name() string
	cpu.Throttle
	cpu.IssueListener
	power.Gater
}

// quietScheme is a Scheme the core may fast-forward under and the
// accountant may charge runs of quiet cycles in bulk. Every built-in
// scheme is one; Observed (telemetry) and other wrappers are not, so their
// runs step every cycle.
type quietScheme interface {
	Scheme
	cpu.QuietThrottle
	power.QuietGater
}

var (
	_ quietScheme = (*None)(nil)
	_ quietScheme = (*DCG)(nil)
	_ quietScheme = (*Oracle)(nil)
	_ quietScheme = (*Lector)(nil)
	_ quietScheme = (*DDCG)(nil)
	_ quietScheme = (*DCGDDCG)(nil)
	_ quietScheme = (*PLB)(nil)
	_ quietScheme = (*DCGPLB)(nil)
)

// fullMasks returns the all-enabled unit masks for a configuration.
func fullMasks(cfg config.Config) (ia, im, fa, fm uint32) {
	return mask(cfg.FU.IntALU), mask(cfg.FU.IntMult), mask(cfg.FU.FPALU), mask(cfg.FU.FPMult)
}

func mask(n int) uint32 {
	if n >= 32 {
		return ^uint32(0)
	}
	return (1 << uint(n)) - 1
}

// None is the baseline: no gating, no throttling.
type None struct {
	cfg   config.Config
	full  power.GateState
	slots []int
}

// NewNone builds the baseline scheme.
func NewNone(cfg config.Config) *None {
	n := &None{cfg: cfg}
	ia, im, fa, fm := fullMasks(cfg)
	n.slots = make([]int, cfg.BackEndLatchStages())
	for i := range n.slots {
		n.slots[i] = cfg.IssueWidth
	}
	n.full = power.GateState{
		IntALUMask:     ia,
		IntMultMask:    im,
		FPALUMask:      fa,
		FPMultMask:     fm,
		BackLatchSlots: n.slots,
		DPortsOn:       cfg.DL1.Ports,
		ResultBusOn:    cfg.IssueWidth,
		IssueQueueFrac: 1,
	}
	return n
}

// Name implements Scheme.
func (n *None) Name() string { return "none" }

// Limits implements cpu.Throttle: no restriction.
func (n *None) Limits(uint64, cpu.CycleFeedback) cpu.Limits {
	return cpu.FullLimits(n.cfg.IssueWidth, n.cfg.DL1.Ports,
		n.cfg.FU.IntALU, n.cfg.FU.IntMult, n.cfg.FU.FPALU, n.cfg.FU.FPMult)
}

// OnIssue implements cpu.IssueListener: the baseline ignores grants.
func (n *None) OnIssue(cpu.IssueEvent) {}

// Gates implements power.Gater: everything stays clocked.
func (n *None) Gates(uint64, *cpu.Usage) power.GateState { return n.full }

// QuietLimits implements cpu.QuietThrottle.
func (n *None) QuietLimits(_, k uint64) uint64 { return k }

// GatesQuiet implements power.QuietGater.
func (n *None) GatesQuiet(uint64, uint64, *cpu.Usage) (power.GateState, bool) {
	return n.full, true
}
