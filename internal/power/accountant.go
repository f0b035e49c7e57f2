package power

import (
	"fmt"
	"math/bits"

	"dcg/internal/cpu"
)

// GateState is a gating scheme's per-cycle decision: which instances of
// each gatable structure have their clock enabled this cycle. Everything
// not represented here is always on.
//
// Ownership contract: a GateState returned by Gater.Gates belongs to the
// caller. Schemes must never write to its slices after returning it, so
// consumers may hold GateStates across cycles and compare them later (a
// regression test in internal/gating enforces this for every scheme).
type GateState struct {
	// Enabled execution units, as bitmasks over unit indices.
	IntALUMask  uint32
	IntMultMask uint32
	FPALUMask   uint32
	FPMultMask  uint32

	// BackLatchSlots[s] is the number of enabled issue-slot latches in
	// gatable latch stage s (stage 0 = rename latch).
	BackLatchSlots []int

	// FrontLatchSlots, when non-nil, gates the front-end latch stages
	// per slot as well. The paper's DCG cannot do this (no advance
	// information before decode); only the Oracle headroom scheme sets it.
	FrontLatchSlots []int

	// DPortsOn is the number of D-cache wordline decoders enabled.
	DPortsOn int

	// ResultBusOn is the number of result-bus drivers enabled.
	ResultBusOn int

	// IssueQueueFrac is the enabled fraction of the issue queue
	// (PLB gates issue-queue slices in its low-power modes; DCG leaves
	// the issue queue to prior work, section 2.2.2).
	IssueQueueFrac float64

	// ControlOverhead charges DCG's extended-latch control power.
	ControlOverhead bool

	// ValueGatedLatches marks a value-dependent latch-gating decision
	// (ddcg family): BackLatchSlots tracks the value-change counts, which
	// may legitimately sit below the latch occupancy. The accountant's
	// soundness check then compares against Usage.BackLatchNewVal instead
	// of Usage.BackLatch.
	ValueGatedLatches bool

	// ControlGates is the number of stage-level gate controls exercised
	// this cycle (LECTOR-style control-gate trees). Each is charged
	// 1/BackLatchStages of the DCG control-block power, accumulated into
	// Tally.ControlGateCycles.
	ControlGates int
}

// Gater produces the gate state for each cycle. The baseline returns
// everything-on; DCG and PLB implement the paper's two methodologies.
type Gater interface {
	Gates(cycle uint64, u *cpu.Usage) GateState
}

// QuietGater is a Gater that decides a run of quiet cycles at once (see
// cpu.QuietObserver). GatesQuiet returns the gate state every one of the n
// (at least one) cycles from cycle gets when each has usage u, and leaves
// the gater as n Gates calls would. It returns false, changing nothing,
// when one state does not cover the run (the oracle's fetch history has
// not drained yet); the accountant then charges the run's first cycle
// through Gates and offers it the rest.
type QuietGater interface {
	GatesQuiet(cycle, n uint64, u *cpu.Usage) (GateState, bool)
}

// Tally is the order-free integral of a run's gating decisions: every
// quantity the energy breakdown depends on, accumulated as exact integer
// sums (plus the one genuinely per-cycle float series, the issue-queue
// fraction). Energy is derived from a Tally in closed form (Breakdown),
// never integrated cycle by cycle — which is what lets the bit-packed
// replay kernel reproduce the scalar path's floats exactly: two paths
// that agree on the Tally agree on every derived float bit for bit,
// because the final float expressions are shared.
type Tally struct {
	// Cycles is the number of accounted cycles.
	Cycles uint64

	// UnitOn[t] is the summed popcount of the enabled-unit masks of
	// execution pool t across all cycles.
	UnitOn [cpu.NumFUTypes]int64

	// BackSlotsOn is the summed enabled back-end latch slots (all stages,
	// all cycles); FrontSlotsOn likewise for gated front-end stages.
	BackSlotsOn  int64
	FrontSlotsOn int64

	// FrontFullCycles counts cycles whose GateState carried no
	// FrontLatchSlots vector — the front latches were left fully on.
	FrontFullCycles uint64

	// DPortsOn / BusOn are the summed enabled D-cache wordline decoders
	// and result-bus drivers. DPortsOn may exceed ports x cycles: DCG
	// reports its raw schedule count and the accountant charges it as-is.
	DPortsOn int64
	BusOn    int64

	// IssueQueueFracSum is the per-cycle issue-queue enabled fraction,
	// accumulated in cycle order. This is the only float in the tally:
	// the oracle's occupancy/window series is not integer-valued, so both
	// accounting paths — the scalar accountant and the packed kernel's
	// single pass over the occupancy column — accumulate it with the
	// identical sequential adds and land on the same bits.
	IssueQueueFracSum float64

	// ControlCycles counts cycles charged the DCG control-latch overhead.
	ControlCycles uint64

	// ControlGateCycles is the summed GateState.ControlGates: stage-level
	// gate-control activations, each worth 1/BackLatchStages of the
	// control-block per-cycle power in the breakdown.
	ControlGateCycles int64

	// GateViolations counts cycles in which a gating decision disabled a
	// structure the pipeline actually used — a correctness failure for a
	// deterministic scheme (must stay 0 for DCG; PLB avoids it by
	// throttling the pipeline to its gated configuration).
	GateViolations uint64
}

// Accountant integrates per-cycle gating decisions into a Tally and
// derives the per-component energy breakdown from it, applying the
// paper's accounting rule: full per-cycle power when not gated, zero
// when gated. It implements cpu.Observer and cpu.QuietObserver.
type Accountant struct {
	Model *Model
	Gater Gater
	Tally

	// LeakageFrac extends the paper's model: a gated structure still
	// burns this fraction of its per-cycle power as leakage. The paper
	// assumes zero ("we assume that there is no leakage loss", section
	// 4.2), which is the default; the ablation study reports how savings
	// shrink as leakage grows.
	LeakageFrac float64
}

// NewAccountant builds an accountant for the model and gating scheme.
func NewAccountant(m *Model, g Gater) *Accountant {
	return &Accountant{Model: m, Gater: g}
}

// OnCycle implements cpu.Observer.
func (a *Accountant) OnCycle(u *cpu.Usage) {
	gs := a.Gater.Gates(u.Cycle, u)
	a.add(&gs, u, 1)
}

// OnQuiet implements cpu.QuietObserver: a QuietGater decides the run at
// once and the tally adds it n times over; any other Gater decides it
// cycle by cycle.
func (a *Accountant) OnQuiet(u *cpu.Usage, n uint64) {
	first := u.Cycle
	q, _ := a.Gater.(QuietGater)
	for ; n > 0; n-- {
		if q != nil {
			if gs, ok := q.GatesQuiet(u.Cycle, n, u); ok {
				a.add(&gs, u, n)
				break
			}
		}
		a.OnCycle(u)
		u.Cycle++
	}
	u.Cycle = first
}

// add tallies n cycles that each had usage u and gate state gs.
func (a *Accountant) add(gs *GateState, u *cpu.Usage, n uint64) {
	m := int64(n)
	a.Cycles += n

	a.UnitOn[cpu.FUIntALU] += m * int64(bits.OnesCount32(gs.IntALUMask))
	a.UnitOn[cpu.FUIntMult] += m * int64(bits.OnesCount32(gs.IntMultMask))
	a.UnitOn[cpu.FUFPALU] += m * int64(bits.OnesCount32(gs.FPALUMask))
	a.UnitOn[cpu.FUFPMult] += m * int64(bits.OnesCount32(gs.FPMultMask))

	slots := 0
	for _, on := range gs.BackLatchSlots {
		slots += on
	}
	a.BackSlotsOn += m * int64(slots)

	if gs.FrontLatchSlots == nil {
		a.FrontFullCycles += n
	} else {
		fslots := 0
		for _, on := range gs.FrontLatchSlots {
			fslots += on
		}
		a.FrontSlotsOn += m * int64(fslots)
	}

	a.DPortsOn += m * int64(gs.DPortsOn)
	a.BusOn += m * int64(gs.ResultBusOn)
	// One add per cycle, never one multiply: the fractions (the oracle's
	// occupancy over the window, a PLB mode's width over the machine's)
	// are not exact binary fractions, so a product rounds differently.
	for i := uint64(0); i < n; i++ {
		a.IssueQueueFracSum += gs.IssueQueueFrac
	}
	if gs.ControlOverhead {
		a.ControlCycles += n
	}
	a.ControlGateCycles += m * int64(gs.ControlGates)

	// Soundness check: a gated structure must not have been used. A
	// value-gated latch decision is sound when it covers every slot that
	// latched a new value; a plain one must cover every occupied slot.
	latchFloor := u.BackLatch
	if gs.ValueGatedLatches {
		latchFloor = u.BackLatchNewVal
	}
	if gs.IntALUMask&u.IntALUBusy != u.IntALUBusy ||
		gs.IntMultMask&u.IntMultBusy != u.IntMultBusy ||
		gs.FPALUMask&u.FPALUBusy != u.FPALUBusy ||
		gs.FPMultMask&u.FPMultBusy != u.FPMultBusy ||
		gs.DPortsOn < u.DPortUsed ||
		gs.ResultBusOn < u.ResultBus {
		a.GateViolations += n
	} else {
		for s, on := range gs.BackLatchSlots {
			if s < len(latchFloor) && on < latchFloor[s] {
				a.GateViolations += n
				break
			}
		}
	}
}

// gatedSum applies the gating accounting rule to a summed on-count over
// a summed capacity: full power per enabled instance-cycle, LeakageFrac
// per gated one. Every energy consumer — scalar replay, direct run, and
// the packed kernel — derives its floats through this one expression, so
// equal tallies give bit-equal energies.
func (a *Accountant) gatedSum(on, total int64) float64 {
	return float64(on) + a.LeakageFrac*float64(total-on)
}

// Breakdown derives the per-component energy from the tally in closed
// form (power x instance-cycles). Cheap enough to call freely; nothing
// is cached.
func (a *Accountant) Breakdown() Breakdown {
	var b Breakdown
	m := a.Model
	cfg := m.cfg
	n := int64(a.Cycles)
	fn := float64(a.Cycles)

	// Fixed blocks: always on.
	for _, c := range [...]Component{
		CompClockTree, CompFetch, CompDecode, CompRename, CompBPred,
		CompRegFile, CompLSQ, CompL2, CompDCacheOther,
	} {
		b[c] = m.perCycle[c] * fn
	}

	// Front latches: full power on the cycles no scheme gated them, the
	// per-slot gating rule on the (oracle) cycles one did.
	gatedFront := n - int64(a.FrontFullCycles)
	b[CompLatchFront] = m.perCycle[CompLatchFront]*float64(a.FrontFullCycles) +
		m.LatchSlot*a.gatedSum(a.FrontSlotsOn, int64(cfg.IssueWidth*m.FrontLatchStages)*gatedFront)

	b[CompIssueQueue] = m.perCycle[CompIssueQueue] * a.IssueQueueFracSum

	b[CompIntALU] = m.IntALUUnit * a.gatedSum(a.UnitOn[cpu.FUIntALU], int64(cfg.FU.IntALU)*n)
	b[CompIntMult] = m.IntMultUnit * a.gatedSum(a.UnitOn[cpu.FUIntMult], int64(cfg.FU.IntMult)*n)
	b[CompFPALU] = m.FPALUUnit * a.gatedSum(a.UnitOn[cpu.FUFPALU], int64(cfg.FU.FPALU)*n)
	b[CompFPMult] = m.FPMultUnit * a.gatedSum(a.UnitOn[cpu.FUFPMult], int64(cfg.FU.FPMult)*n)

	// Pipeline latches: per enabled slot per stage.
	b[CompLatchBack] = m.LatchSlot * a.gatedSum(a.BackSlotsOn, int64(cfg.IssueWidth*m.BackLatchStages)*n)

	// D-cache wordline decoders: per enabled port.
	b[CompDCacheDecoder] = m.DecoderPort * a.gatedSum(a.DPortsOn, int64(cfg.DL1.Ports)*n)

	// Result bus drivers: per enabled bus.
	b[CompResultBus] = m.ResultBusUnit * a.gatedSum(a.BusOn, int64(cfg.IssueWidth)*n)

	b[CompDCGControl] = m.perCycle[CompDCGControl] * float64(a.ControlCycles)
	if a.ControlGateCycles != 0 && m.BackLatchStages > 0 {
		b[CompDCGControl] += m.perCycle[CompDCGControl] *
			float64(a.ControlGateCycles) / float64(m.BackLatchStages)
	}
	return b
}

// AvgPower returns the mean per-cycle power over the accounted run.
func (a *Accountant) AvgPower() float64 {
	if a.Cycles == 0 {
		return 0
	}
	b := a.Breakdown()
	return b.Total() / float64(a.Cycles)
}

// Saving returns the fractional power saving relative to the no-gating
// baseline (which burns AllOnPower every cycle).
func (a *Accountant) Saving() float64 {
	base := a.Model.AllOnPower()
	if base == 0 {
		return 0
	}
	return 1 - a.AvgPower()/base
}

// ComponentSaving returns the fractional saving of a component group:
// the energy the group consumed versus always-on, over the accounted
// cycles. Groups let the per-figure experiments reproduce the paper's
// per-structure plots (integer units = CompIntALU+CompIntMult, etc).
func (a *Accountant) ComponentSaving(comps ...Component) float64 {
	b := a.Breakdown()
	var used, full float64
	for _, c := range comps {
		used += b[c]
		full += a.Model.perCycle[c] * float64(a.Cycles)
	}
	if full == 0 {
		return 0
	}
	return 1 - used/full
}

// LatchSaving returns the paper's Figure 14 quantity: the saving over
// total pipeline latch power (front + back), with the DCG control-latch
// overhead charged against it.
func (a *Accountant) LatchSaving() float64 {
	b := a.Breakdown()
	used := b[CompLatchFront] + b[CompLatchBack] + b[CompDCGControl]
	full := a.Model.LatchPower() * float64(a.Cycles)
	if full == 0 {
		return 0
	}
	return 1 - used/full
}

// DCacheSaving returns the paper's Figure 15 quantity: the saving over
// total D-cache power (decoders + rest).
func (a *Accountant) DCacheSaving() float64 {
	b := a.Breakdown()
	used := b[CompDCacheDecoder] + b[CompDCacheOther]
	full := a.Model.DCachePower() * float64(a.Cycles)
	if full == 0 {
		return 0
	}
	return 1 - used/full
}

// Validate checks energy-conservation invariants: every component's energy
// is within [0, allOn] (property 4 in DESIGN.md).
func (a *Accountant) Validate() error {
	b := a.Breakdown()
	for c := Component(0); c < NumComponents; c++ {
		full := a.Model.perCycle[c] * float64(a.Cycles)
		if b[c] < -1e-9 {
			return fmt.Errorf("power: component %v has negative energy", c)
		}
		if b[c] > full*(1+1e-9)+1e-9 {
			return fmt.Errorf("power: component %v energy %.1f exceeds all-on %.1f", c, b[c], full)
		}
	}
	return nil
}
