package gating

import (
	"dcg/internal/config"
	"dcg/internal/cpu"
	"dcg/internal/power"
)

// DCGDDCG composes deterministic clock gating with data-dependent latch
// gating: DCG's schedule-driven decisions gate execution units, D-cache
// decoders and result buses exactly as the paper's controller does, and
// on top the back-end latch stages are gated to their value-change
// counts (DDCG) instead of their occupancy. Since a slot's value-change
// count never exceeds its occupancy, the hybrid's latch enables are a
// subset of plain DCG's — the upper bound on combined latch savings.
type DCGDDCG struct {
	dcg    *DCG
	stages int
	slab   intSlab
}

// NewDCGDDCG builds the dcg+ddcg hybrid.
func NewDCGDDCG(cfg config.Config) *DCGDDCG {
	return &DCGDDCG{dcg: NewDCG(cfg), stages: cfg.BackEndLatchStages()}
}

// Name implements Scheme.
func (h *DCGDDCG) Name() string { return "dcg+ddcg" }

// Limits implements cpu.Throttle: like both parents, never restricts.
func (h *DCGDDCG) Limits(cycle uint64, fb cpu.CycleFeedback) cpu.Limits {
	return h.dcg.Limits(cycle, fb)
}

// OnIssue implements cpu.IssueListener: grants feed DCG's schedule rings.
func (h *DCGDDCG) OnIssue(ev cpu.IssueEvent) { h.dcg.OnIssue(ev) }

// Gates implements power.Gater: DCG's decision with the latch slots
// tightened to the value-change counts.
func (h *DCGDDCG) Gates(cycle uint64, u *cpu.Usage) power.GateState {
	return h.tighten(h.dcg.Gates(cycle, u), u)
}

// QuietLimits implements cpu.QuietThrottle: the hybrid never throttles.
func (h *DCGDDCG) QuietLimits(_, n uint64) uint64 { return n }

// GatesQuiet implements power.QuietGater: DCG's run state, tightened.
func (h *DCGDDCG) GatesQuiet(cycle, n uint64, u *cpu.Usage) (power.GateState, bool) {
	gs, ok := h.dcg.GatesQuiet(cycle, n, u)
	if !ok {
		return gs, false
	}
	return h.tighten(gs, u), true
}

// tighten gates DCG's latch slots to u's value-change counts. The override
// slice is cut from the hybrid's own slab so the inner controller's
// GateState stays untouched (caller-ownership contract).
func (h *DCGDDCG) tighten(gs power.GateState, u *cpu.Usage) power.GateState {
	if u.BackLatchNewVal != nil {
		slots := h.slab.take(h.stages)
		copy(slots, u.BackLatchNewVal)
		gs.BackLatchSlots = slots
	}
	gs.ValueGatedLatches = true
	return gs
}

// LeadViolations returns the inner DCG controller's advance-knowledge
// violations.
func (h *DCGDDCG) LeadViolations() uint64 { return h.dcg.LeadViolations }

// Stats returns the inner DCG controller's activity summary.
func (h *DCGDDCG) Stats() DCGStats { return h.dcg.Stats() }

// DCGPLB composes deterministic clock gating with pipeline balancing:
// PLB's trigger FSM throttles the machine to its mode (so the run's
// timing is PLB-ext's), and each cycle the gate state is the
// intersection of both controllers' decisions — a structure instance is
// clocked only if DCG's schedule says it will be used AND PLB's mode
// keeps its slice enabled. Both parents are sound over-approximations
// of actual use, so their intersection is too.
type DCGPLB struct {
	dcg    *DCG
	plb    *PLB
	stages int
	slab   intSlab
}

// NewDCGPLB builds the dcg+plb hybrid over the PLB-ext variant.
func NewDCGPLB(cfg config.Config, params PLBParams) *DCGPLB {
	return &DCGPLB{
		dcg:    NewDCG(cfg),
		plb:    NewPLB(cfg, params, true),
		stages: cfg.BackEndLatchStages(),
	}
}

// Name implements Scheme.
func (h *DCGPLB) Name() string { return "dcg+plb" }

// Limits implements cpu.Throttle: PLB's mode FSM drives the machine.
func (h *DCGPLB) Limits(cycle uint64, fb cpu.CycleFeedback) cpu.Limits {
	return h.plb.Limits(cycle, fb)
}

// OnIssue implements cpu.IssueListener: grants feed DCG's schedule rings
// (PLB ignores them).
func (h *DCGPLB) OnIssue(ev cpu.IssueEvent) { h.dcg.OnIssue(ev) }

// Gates implements power.Gater: the intersection of both decisions.
func (h *DCGPLB) Gates(cycle uint64, u *cpu.Usage) power.GateState {
	return h.intersect(h.dcg.Gates(cycle, u), h.plb.Gates(cycle, u))
}

// QuietLimits implements cpu.QuietThrottle: PLB's mode FSM decides.
func (h *DCGPLB) QuietLimits(cycle, n uint64) uint64 { return h.plb.QuietLimits(cycle, n) }

// GatesQuiet implements power.QuietGater: the intersection of both
// parents' run states, when DCG's covers the run.
func (h *DCGPLB) GatesQuiet(cycle, n uint64, u *cpu.Usage) (power.GateState, bool) {
	a, ok := h.dcg.GatesQuiet(cycle, n, u)
	if !ok {
		return a, false
	}
	b, _ := h.plb.GatesQuiet(cycle, n, u)
	return h.intersect(a, b), true
}

// intersect is the per-instance intersection of DCG's decision a and
// PLB's decision b — masks ANDed, counts and fractions taken at the
// minimum, latch slots stage-wise minimal into the hybrid's own slab
// slice.
func (h *DCGPLB) intersect(a, b power.GateState) power.GateState {
	var gs power.GateState
	gs.IntALUMask = a.IntALUMask & b.IntALUMask
	gs.IntMultMask = a.IntMultMask & b.IntMultMask
	gs.FPALUMask = a.FPALUMask & b.FPALUMask
	gs.FPMultMask = a.FPMultMask & b.FPMultMask
	gs.DPortsOn = min(a.DPortsOn, b.DPortsOn)
	gs.ResultBusOn = min(a.ResultBusOn, b.ResultBusOn)
	gs.IssueQueueFrac = a.IssueQueueFrac
	if b.IssueQueueFrac < gs.IssueQueueFrac {
		gs.IssueQueueFrac = b.IssueQueueFrac
	}
	slots := h.slab.take(h.stages)
	for s := range slots {
		slots[s] = min(a.BackLatchSlots[s], b.BackLatchSlots[s])
	}
	gs.BackLatchSlots = slots
	gs.ControlOverhead = true
	return gs
}

// LeadViolations returns the inner DCG controller's advance-knowledge
// violations.
func (h *DCGPLB) LeadViolations() uint64 { return h.dcg.LeadViolations }

// ModeCycles returns the inner PLB controller's cycles spent per mode.
func (h *DCGPLB) ModeCycles() map[int]uint64 { return h.plb.ModeCycles() }

// Transitions returns the inner PLB controller's mode switches.
func (h *DCGPLB) Transitions() uint64 { return h.plb.Transitions() }
