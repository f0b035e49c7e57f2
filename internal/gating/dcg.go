package gating

import (
	"fmt"
	"math/bits"

	"dcg/internal/config"
	"dcg/internal/cpu"
	"dcg/internal/power"
	"dcg/internal/usagetrace"
)

// schedHorizon is the DCG controller's schedule depth in cycles: the
// core's scheduling horizon, which config.Validate holds every machine's
// issue-to-writeback distance below, so the two rings wrap identically.
// It aliases usagetrace's constant, whose packed decode pass mirrors this
// ring, so the two stay equal by construction.
const schedHorizon = usagetrace.SchedHorizon

// DCG implements deterministic clock gating (sections 2-3).
//
// The implementation mirrors the paper's hardware:
//
//   - Execution units (§3.1): the selection logic's GRANT signals are
//     latched and piped two cycles (issue -> register read -> execute), so
//     the controller knows at cycle X exactly which units run at X+2, for
//     how long, and gates the rest. The sequential-priority selection
//     policy (implemented in the core's FU pools) keeps the gated set
//     stable.
//   - Pipeline latches (§3.2): a one-hot encoding of the issue slots is
//     piped down through extended latches and gates each back-end latch
//     stage's unused slots (stage 0, the rename latch, is driven by the
//     decode stage's count one cycle ahead).
//   - D-cache wordline decoders (§3.3): the load/store issue one-hot,
//     delayed to the memory stage (X+3, or X+4 for delayed stores),
//     enables only the ports that will be accessed.
//   - Result bus drivers (§3.4): the writeback one-hot, delayed to each
//     instruction's writeback cycle, enables only the driven buses.
//
// Every schedule entry is written at least one cycle before it takes
// effect (the clock-gate control set-up time the paper requires);
// LeadViolations counts any event that arrives too late and must stay 0.

// DCGOptions selects which structure classes the controller gates; the
// paper gates all four, and the ablation study measures their individual
// contributions by disabling subsets.
type DCGOptions struct {
	GateUnits   bool // execution units (section 3.1)
	GateLatches bool // back-end pipeline latches (section 3.2)
	GateDCache  bool // D-cache wordline decoders (section 3.3)
	GateBus     bool // result bus drivers (section 3.4)
}

// AllDCGOptions gates everything the paper gates.
func AllDCGOptions() DCGOptions {
	return DCGOptions{GateUnits: true, GateLatches: true, GateDCache: true, GateBus: true}
}

// DCG is the deterministic clock gating controller (see the package and
// section comments above for the hardware it mirrors).
type DCG struct {
	cfg  config.Config
	opts DCGOptions

	// rings holds the controller's schedule state, allocated on first
	// use: packed replay instantiates controllers for their name and
	// configuration but never feeds them a cycle, and eagerly zeroing
	// ~256KB of ring per instance was that path's largest single cost.
	rings *dcgRings

	// stages is the number of gatable back-end latch stages.
	stages int

	// prevMask tracks the previous cycle's enable masks to count
	// clock-gate control toggles (the di/dt and control-power concern
	// section 3.1's sequential priority policy addresses).
	prevMask [cpu.NumFUTypes]uint32

	// LeadViolations counts schedule writes that arrived with less than
	// one cycle of advance notice (would be a determinism failure).
	LeadViolations uint64

	// slab backs the caller-owned BackLatchSlots slices (see intSlab).
	slab intSlab

	// GatedUnitCycles / observed totals, for reporting.
	stats DCGStats

	// busyAt is one past the cycle whose schedule slot the last failed
	// GatesQuiet found holding work (zero: none). The slot keeps its work
	// until Gates reads it at that cycle, so a later run that covers the
	// cycle fails without a second scan: a run the accountant steps
	// through slot by slot costs one scan, not one per cycle.
	busyAt uint64
}

// dcgRings is the controller's schedule storage — the latched GRANT
// masks and port/bus counts indexed by target cycle modulo the horizon.
type dcgRings struct {
	fuSched    [cpu.NumFUTypes][schedHorizon]uint32
	dportSched [schedHorizon]int
	busSched   [schedHorizon]int
}

// ensureRings allocates the schedule rings on first touch. Both OnIssue
// and Gates call it: a replayed trace may deliver a usage vector before
// any issue event, and the zero rings must then read as an all-gated
// schedule exactly as the eager arrays did.
func (d *DCG) ensureRings() *dcgRings {
	if d.rings == nil {
		d.rings = &dcgRings{}
	}
	return d.rings
}

// DCGStats summarises the controller's gating activity.
type DCGStats struct {
	Cycles          uint64
	UnitCyclesOn    uint64
	UnitCyclesTotal uint64
	PortCyclesOn    uint64
	PortCyclesTotal uint64
	BusCyclesOn     uint64
	BusCyclesTotal  uint64
	SlotCyclesOn    uint64
	SlotCyclesTotal uint64

	// ControlToggles counts execution-unit clock-enable bit transitions
	// (0->1 or 1->0) across consecutive cycles. Sequential priority keeps
	// this low; the round-robin ablation shows it ballooning.
	ControlToggles uint64
}

// NewDCG builds the DCG controller for a configuration, gating everything
// the paper gates.
func NewDCG(cfg config.Config) *DCG {
	return NewDCGPartial(cfg, AllDCGOptions())
}

// NewDCGPartial builds a DCG controller that gates only the selected
// structure classes (for the contribution ablation).
func NewDCGPartial(cfg config.Config, opts DCGOptions) *DCG {
	return &DCG{
		cfg:    cfg,
		opts:   opts,
		stages: cfg.BackEndLatchStages(),
	}
}

// Name implements Scheme.
func (d *DCG) Name() string {
	if d.opts == AllDCGOptions() {
		return "dcg"
	}
	name := "dcg["
	if d.opts.GateUnits {
		name += "u"
	}
	if d.opts.GateLatches {
		name += "l"
	}
	if d.opts.GateDCache {
		name += "d"
	}
	if d.opts.GateBus {
		name += "b"
	}
	return name + "]"
}

// Limits implements cpu.Throttle: DCG never restricts the pipeline — that
// is the paper's "no performance loss" guarantee.
func (d *DCG) Limits(uint64, cpu.CycleFeedback) cpu.Limits {
	return cpu.FullLimits(d.cfg.IssueWidth, d.cfg.DL1.Ports,
		d.cfg.FU.IntALU, d.cfg.FU.IntMult, d.cfg.FU.FPALU, d.cfg.FU.FPMult)
}

// OnIssue implements cpu.IssueListener: it latches the GRANT signal and
// sets up the future clock-enable schedule.
func (d *DCG) OnIssue(ev cpu.IssueEvent) {
	r := d.ensureRings()
	if ev.FUIdx >= 0 {
		if ev.FUStart <= ev.Cycle {
			d.LeadViolations++
		}
		for c := ev.FUStart; c < ev.FUStart+usagetrace.SchedSpan(ev.FULat); c++ {
			r.fuSched[ev.FUType][c%schedHorizon] |= 1 << uint(ev.FUIdx)
		}
	}
	if ev.IsLoad || ev.IsStore {
		if ev.DPortCycle <= ev.Cycle {
			d.LeadViolations++
		}
		r.dportSched[ev.DPortCycle%schedHorizon]++
	}
	if ev.WritesReg {
		if ev.ResultBusCycle <= ev.Cycle {
			d.LeadViolations++
		}
		r.busSched[ev.ResultBusCycle%schedHorizon]++
	}
}

// Gates implements power.Gater: it reads (and retires) this cycle's
// schedule entries. The returned GateState is owned by the caller: its
// slices are cut from never-reused slab memory each cycle and are never
// written again by the controller, so consumers may retain GateStates
// across cycles.
func (d *DCG) Gates(cycle uint64, u *cpu.Usage) power.GateState {
	idx := cycle % schedHorizon
	r := d.ensureRings()

	var gs power.GateState
	gs.IntALUMask = r.fuSched[cpu.FUIntALU][idx]
	gs.IntMultMask = r.fuSched[cpu.FUIntMult][idx]
	gs.FPALUMask = r.fuSched[cpu.FUFPALU][idx]
	gs.FPMultMask = r.fuSched[cpu.FUFPMult][idx]
	for t := 0; t < int(cpu.NumFUTypes); t++ {
		r.fuSched[t][idx] = 0
	}
	// Control toggle accounting (before any ablation override, since the
	// control signals exist regardless).
	for t, m := range [...]uint32{gs.IntALUMask, gs.IntMultMask, gs.FPALUMask, gs.FPMultMask} {
		d.stats.ControlToggles += uint64(bits.OnesCount32(m ^ d.prevMask[t]))
		d.prevMask[t] = m
	}
	if !d.opts.GateUnits {
		ia, im, fa, fm := fullMasks(d.cfg)
		gs.IntALUMask, gs.IntMultMask, gs.FPALUMask, gs.FPMultMask = ia, im, fa, fm
	}

	gs.DPortsOn = r.dportSched[idx]
	r.dportSched[idx] = 0
	if !d.opts.GateDCache {
		gs.DPortsOn = d.cfg.DL1.Ports
	}

	bus := r.busSched[idx]
	r.busSched[idx] = 0
	if bus > d.cfg.IssueWidth {
		bus = d.cfg.IssueWidth
	}
	gs.ResultBusOn = bus
	if !d.opts.GateBus {
		gs.ResultBusOn = d.cfg.IssueWidth
	}

	// Latch slots: the piped one-hot encodings enable exactly the slots
	// instructions flow through (the core's BackLatch vector is, by
	// construction, the delayed issue/rename one-hot popcount). Copied
	// into a caller-owned slab slice: u.BackLatch is the core's reused
	// buffer, and aliasing the controller's own scratch here historically
	// corrupted any GateState a consumer held past the cycle that
	// produced it.
	slots := d.slab.take(d.stages)
	if d.opts.GateLatches {
		copy(slots, u.BackLatch)
	} else {
		for i := range slots {
			slots[i] = d.cfg.IssueWidth
		}
	}
	gs.BackLatchSlots = slots

	gs.IssueQueueFrac = 1 // DCG leaves the issue queue to [6] (§2.2.2)
	gs.ControlOverhead = true

	d.count(&gs, 1)
	return gs
}

// count adds n cycles of gate state gs to the activity summary.
func (d *DCG) count(gs *power.GateState, n uint64) {
	d.stats.Cycles += n
	d.stats.UnitCyclesOn += n * popcountAll(*gs)
	d.stats.UnitCyclesTotal += n * uint64(d.cfg.FU.Total())
	d.stats.PortCyclesOn += n * uint64(gs.DPortsOn)
	d.stats.PortCyclesTotal += n * uint64(d.cfg.DL1.Ports)
	d.stats.BusCyclesOn += n * uint64(gs.ResultBusOn)
	d.stats.BusCyclesTotal += n * uint64(d.cfg.IssueWidth)
	for _, s := range gs.BackLatchSlots {
		d.stats.SlotCyclesOn += n * uint64(s)
	}
	d.stats.SlotCyclesTotal += n * uint64(d.cfg.IssueWidth*len(gs.BackLatchSlots))
}

// QuietLimits implements cpu.QuietThrottle: DCG never throttles.
func (d *DCG) QuietLimits(_, n uint64) uint64 { return n }

// GatesQuiet implements power.QuietGater. One state covers a run whose
// schedule slots are all empty: the first cycle reads (and counts the
// toggle from) the previous masks, every later one reads zeros again.
func (d *DCG) GatesQuiet(cycle, n uint64, u *cpu.Usage) (power.GateState, bool) {
	if d.busyAt > cycle && d.busyAt <= cycle+n {
		return power.GateState{}, false
	}
	r := d.ensureRings()
	for c := cycle; c < cycle+n; c++ {
		i := c % schedHorizon
		if r.fuSched[cpu.FUIntALU][i]|r.fuSched[cpu.FUIntMult][i]|
			r.fuSched[cpu.FUFPALU][i]|r.fuSched[cpu.FUFPMult][i] != 0 ||
			r.dportSched[i] != 0 || r.busSched[i] != 0 {
			d.busyAt = c + 1
			return power.GateState{}, false
		}
	}
	gs := d.Gates(cycle, u)
	d.count(&gs, n-1)
	return gs, true
}

func popcountAll(gs power.GateState) uint64 {
	return uint64(bits.OnesCount32(gs.IntALUMask) + bits.OnesCount32(gs.IntMultMask) +
		bits.OnesCount32(gs.FPALUMask) + bits.OnesCount32(gs.FPMultMask))
}

// Stats returns the controller's activity summary.
func (d *DCG) Stats() DCGStats { return d.stats }

// String summarises the controller state.
func (d *DCG) String() string {
	return fmt.Sprintf("dcg(store=%s)", d.cfg.StoreDelayPolicy)
}
