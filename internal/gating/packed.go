package gating

// This file is the word-at-a-time evaluation of every registered scheme,
// the one engine production replays run on. Instead of
// replaying a trace cycle by cycle through OnIssue/Gates/OnCycle
// callbacks, as the scalar reference engine does, it derives each
// scheme's complete power.Tally — the order-free integral the accountant
// would have accumulated — directly from the bit-planes and
// schedule-mirror aggregates of the trace's packed view
// (usagetrace.Packed). The scheme
// semantics are closed-form here because each structure class is
// independent:
//
//   - a gated class's enabled-instance sum is a decode-time aggregate of
//     the mirrored DCG schedule (popcounts of schedule masks, summed
//     port/bus counts, summed latch occupancy or, for the value-dependent
//     schemes, summed value-change counts);
//   - an ungated class burns capacity x cycles;
//   - gate violations are popcounts of OR'd violation bit-planes
//     (usage-exceeded-schedule planes for gated classes, lazy
//     usage-exceeded-capacity planes for ungated ones).
//
// The tallies are exact — integer sums plus float series reproduced in
// the scalar accountant's operation order — so Results derived from them
// are bit-identical to scalar replay (golden-tested in internal/core).

import (
	"fmt"
	"math/bits"

	"dcg/internal/config"
	"dcg/internal/cpu"
	"dcg/internal/power"
	"dcg/internal/usagetrace"
)

// PackedTally derives the power.Tally a full scalar replay of the scheme
// over the trace would produce, plus the scheme's lead-violation count,
// from the trace's packed view, without feeding the scheme a single
// cycle. It knows every registered scheme: none, DCG and its ablations,
// oracle, lector, ddcg and dcg+ddcg over any view, and plb-orig, plb-ext
// and dcg+plb over a view their own throttle drove (plbTally). Anything
// else fails, naming the scheme — a wrapped one (Observed), a custom
// type, a scheme built for a different machine than the trace's, a PLB
// with other than the default parameters or with an oracle schedule, a
// PLB over a view no PLB throttled, a value-dependent scheme over a trace
// without the latchvalue channel, or an oracle over a front end deeper
// than config.MaxFrontEndStages — and so does a tally that needs an
// over-capacity plane from a view captured without its bytes. The scheme
// instance is never mutated.
func PackedTally(p *usagetrace.Packed, s Scheme, machine config.Config) (t power.Tally, lead uint64, err error) {
	if p.BackLatchStages() != machine.BackEndLatchStages() {
		return power.Tally{}, 0, errNoTally(s)
	}
	switch sc := s.(type) {
	case *None:
		// The baseline is a DCG that gates nothing, without its control
		// overhead.
		if sc.cfg != machine {
			return power.Tally{}, 0, errNoTally(s)
		}
		if t, err = dcgTally(p, machine, DCGOptions{}); err != nil {
			return power.Tally{}, 0, err
		}
		t.ControlCycles = 0
		return t, 0, nil
	case *DCG:
		if sc.cfg != machine {
			return power.Tally{}, 0, errNoTally(s)
		}
		if t, err = dcgTally(p, machine, sc.opts); err != nil {
			return power.Tally{}, 0, err
		}
		return t, p.LeadViolations(), nil
	case *Oracle:
		if sc.cfg != machine || sc.frontDepth < 1 {
			return power.Tally{}, 0, errNoTally(s)
		}
		if sc.frontDepth > config.MaxFrontEndStages {
			return power.Tally{}, 0, fmt.Errorf("gating: oracle over %d front-end stages has no packed tally: "+
				"a view covers at most %d (config.MaxFrontEndStages)", sc.frontDepth, config.MaxFrontEndStages)
		}
		if t, err = dcgTally(p, machine, AllDCGOptions()); err != nil {
			return power.Tally{}, 0, err
		}
		t.IssueQueueFracSum = p.IssueQueueFracSum(machine.WindowSize)
		t.FrontFullCycles = 0
		t.FrontSlotsOn = p.FrontSlotsSum(sc.frontDepth)
		return t, p.LeadViolations(), nil
	case *Lector:
		if sc.cfg != machine {
			return power.Tally{}, 0, errNoTally(s)
		}
		t, err = lectorTally(p, machine)
		return t, 0, err
	case *DDCG:
		// ddcg is DCG gating the latches alone, each stage to its
		// value-change count: everything else burns full capacity, and
		// its latches never violate, since the accountant's latch floor
		// is the very count they are gated to.
		if sc.cfg != machine {
			return power.Tally{}, 0, errNoTally(s)
		}
		t, err = valueTally(p, machine, DCGOptions{GateLatches: true}, sc.Name())
		return t, 0, err
	case *DCGDDCG:
		if sc.dcg.cfg != machine {
			return power.Tally{}, 0, errNoTally(s)
		}
		if t, err = valueTally(p, machine, AllDCGOptions(), sc.Name()); err != nil {
			return power.Tally{}, 0, err
		}
		return t, p.LeadViolations(), nil
	case *PLB:
		if sc.cfg != machine {
			return power.Tally{}, 0, errNoTally(s)
		}
		t, err = plbTally(p, machine, sc, false)
		return t, 0, err
	case *DCGPLB:
		if sc.dcg.cfg != machine || sc.plb.cfg != machine || sc.dcg.opts != AllDCGOptions() {
			return power.Tally{}, 0, errNoTally(s)
		}
		if t, err = plbTally(p, machine, sc.plb, true); err != nil {
			return power.Tally{}, 0, fmt.Errorf("gating: %s: %w", sc.Name(), err)
		}
		return t, p.LeadViolations(), nil
	}
	return power.Tally{}, 0, errNoTally(s)
}

// errNoTally is PackedTally's refusal of a scheme it does not know.
func errNoTally(s Scheme) error {
	return fmt.Errorf("gating: scheme %s has no packed tally: it is wrapped, custom, "+
		"or built for another machine", s.Name())
}

// plbTally derives the tally of plb, a PLB controller with the default
// parameters, or with dcg that of dcg+plb over it, from a view that
// plb's own throttle drove. PLB's Gates reads nothing of its mode but the
// mode's Limits, and the view sums every cycle's usage under the Limits
// the throttle returned (usagetrace.LimitsSums): PLB enables mask(limit)
// | busy units and, in PLB-ext, max(limit, used) latch slots, D-ports and
// result buses; dcg+plb the minimum of those and DCG's schedule. The
// issue-queue fraction is the mode width over the machine's, summed in
// cycle order. Everything else is DCG's tally with the classes PLB
// leaves ungated ungated: PLB's drained state covers every cycle's
// usage, so its violations are those of its ungated classes, and
// dcg+plb's are DCG's. Every Limits value in the view must be one of
// plb's modes', which also bounds each width by the machine's, so
// dcg+plb's bus minimum is DCG's width-capped one.
func plbTally(p *usagetrace.Packed, cfg config.Config, plb *PLB, dcg bool) (power.Tally, error) {
	if plb.params != DefaultPLBParams() || plb.oracle != nil {
		return power.Tally{}, fmt.Errorf("gating: scheme %s has no packed tally: only the default "+
			"parameters without an oracle schedule are tallied; run it live", plb.Name())
	}
	sums := p.Limits()
	if len(sums) == 0 {
		return power.Tally{}, fmt.Errorf("gating: scheme %s needs a capture its own throttle drove", plb.Name())
	}
	var on usagetrace.LimitsSums
	for _, s := range sums {
		if s.Limits != plb.limits(Mode8) && s.Limits != plb.limits(Mode6) && s.Limits != plb.limits(Mode4) {
			return power.Tally{}, fmt.Errorf("gating: scheme %s: the capture's throttle returned %+v, "+
				"which none of its modes has", plb.Name(), s.Limits)
		}
		for ft := range on.UnitOn {
			on.UnitOn[ft] += s.UnitOn[ft]
			on.UnitSchedOn[ft] += s.UnitSchedOn[ft]
		}
		on.LatchOn, on.DPortOn, on.BusOn = on.LatchOn+s.LatchOn, on.DPortOn+s.DPortOn, on.BusOn+s.BusOn
		on.DPortSchedOn, on.BusSchedOn = on.DPortSchedOn+s.DPortSchedOn, on.BusSchedOn+s.BusSchedOn
	}
	opts := DCGOptions{}
	if dcg {
		opts = AllDCGOptions()
	}
	t, err := dcgTally(p, cfg, opts)
	if err != nil {
		return power.Tally{}, err
	}
	t.IssueQueueFracSum = p.IssueWidthFracSum(cfg.IssueWidth)
	switch {
	case dcg:
		t.UnitOn, t.DPortsOn, t.BusOn = on.UnitSchedOn, on.DPortSchedOn, on.BusSchedOn
	case plb.ext:
		t.UnitOn, t.BackSlotsOn, t.DPortsOn, t.BusOn = on.UnitOn, on.LatchOn, on.DPortOn, on.BusOn
		t.ControlCycles, t.GateViolations = 0, 0
	default:
		t.UnitOn, t.ControlCycles = on.UnitOn, 0
	}
	return t, nil
}

// valueTally is dcgTally with the back-end latches gated to their
// value-change counts instead of their occupancy: the tally of the ddcg
// family. It fails, naming the scheme, when the trace lacks the
// latchvalue channel.
func valueTally(p *usagetrace.Packed, cfg config.Config, opts DCGOptions, scheme string) (power.Tally, error) {
	t, err := dcgTally(p, cfg, opts)
	if err != nil {
		return t, err
	}
	var ok bool
	if t.BackSlotsOn, ok = p.BackLatchNewValSum(); !ok {
		return power.Tally{}, fmt.Errorf("gating: scheme %s needs the %s channel, which the trace lacks",
			scheme, usagetrace.ChannelLatchValue)
	}
	return t, nil
}

// lectorTally derives the stage-level occupancy scheme's tally in closed
// form: an occupied stage burns width slots, an empty one zero, and the
// control-gate count is the empty-stage total with the all-idle cycles
// collapsed to the single master gate — exactly the scalar Gates rule,
// summed over the latch-non-zero planes.
func lectorTally(p *usagetrace.Packed, cfg config.Config) (power.Tally, error) {
	t, err := dcgTally(p, cfg, DCGOptions{}) // every class ungated, as the baseline
	if err != nil {
		return t, err
	}
	t.ControlCycles = 0
	n := int64(p.Cycles())
	stages := cfg.BackEndLatchStages()
	var nzSum, anyNZ int64
	for w := 0; w < p.Words(); w++ {
		union := uint64(0)
		for s := 0; s < stages; s++ {
			v := p.LatchNonZeroPlane(s)[w]
			nzSum += int64(bits.OnesCount64(v))
			union |= v
		}
		anyNZ += int64(bits.OnesCount64(union))
	}
	t.BackSlotsOn = int64(cfg.IssueWidth) * nzSum
	gateCycles := int64(stages)*n - nzSum
	if stages > 1 {
		gateCycles -= (n - anyNZ) * int64(stages-1)
	}
	t.ControlGateCycles = gateCycles
	return t, nil
}

// fuCounts collects the machine's FU pool sizes indexed by cpu.FUType.
func fuCounts(cfg config.Config) [cpu.NumFUTypes]int {
	return [cpu.NumFUTypes]int{
		cpu.FUIntALU:  cfg.FU.IntALU,
		cpu.FUIntMult: cfg.FU.IntMult,
		cpu.FUFPALU:   cfg.FU.FPALU,
		cpu.FUFPMult:  cfg.FU.FPMult,
	}
}

// fullTally is the everything-on tally shared by the baseline scheme and
// every ungated structure class: capacity x cycles for each structure,
// issue queue fully enabled, front latches never gated, control overhead
// charged every cycle (DCG's Gates sets ControlOverhead unconditionally;
// None zeroes it after).
func fullTally(p *usagetrace.Packed, cfg config.Config) power.Tally {
	n := p.Cycles()
	var t power.Tally
	t.Cycles = n
	counts := fuCounts(cfg)
	for ft := 0; ft < int(cpu.NumFUTypes); ft++ {
		t.UnitOn[ft] = int64(n) * int64(bits.OnesCount32(mask(counts[ft])))
	}
	t.BackSlotsOn = int64(n) * int64(cfg.IssueWidth*cfg.BackEndLatchStages())
	t.FrontFullCycles = n
	t.DPortsOn = int64(n) * int64(cfg.DL1.Ports)
	t.BusOn = int64(n) * int64(cfg.IssueWidth)
	// One 1.0 per cycle: exact below 2^53 cycles, matching the scalar
	// accountant's repeated adds bit for bit.
	t.IssueQueueFracSum = float64(n)
	t.ControlCycles = n
	return t
}

// dcgTally derives the tally of a DCG controller with the given ablation
// options: each gated class reads the decode-time schedule aggregates,
// each ungated class the full-capacity terms, and the violation count is
// the popcount of the OR of exactly the planes the scalar accountant's
// per-cycle predicate would test. With no class gated it is the
// everything-on tally with the over-capacity violations of every class.
// It fails only when an over-capacity plane is needed from a view
// without the encoded stream.
func dcgTally(p *usagetrace.Packed, cfg config.Config, opts DCGOptions) (power.Tally, error) {
	t := fullTally(p, cfg)
	planes := make([][]uint64, 0, 5)
	var err error
	over := func(plane []uint64, e error) {
		planes = append(planes, plane)
		if err == nil {
			err = e
		}
	}

	if opts.GateUnits {
		for ft := 0; ft < int(cpu.NumFUTypes); ft++ {
			t.UnitOn[ft] = p.UnitSchedOnSum(cpu.FUType(ft))
		}
		planes = append(planes, p.UnitSchedViolationPlane())
	} else {
		over(p.OverFullUnits(fuCounts(cfg)))
	}

	if opts.GateLatches {
		t.BackSlotsOn = p.BackLatchSum()
		// Gated latches copy the usage vector: enabled slots always cover
		// used slots, no violation plane.
	} else {
		over(p.OverFullLatch(cfg.IssueWidth))
	}

	if opts.GateDCache {
		t.DPortsOn = p.DPortSchedSum()
		planes = append(planes, p.DPortSchedViolationPlane())
	} else {
		over(p.OverFullDPorts(cfg.DL1.Ports))
	}

	// Enabled drivers are min(schedule, width): gated, usage can exceed
	// that by beating the raw schedule or by exceeding the width cap.
	if opts.GateBus {
		t.BusOn = p.BusSchedCappedSum(cfg.IssueWidth)
		planes = append(planes, p.BusSchedViolationPlane())
	}
	over(p.OverFullBus(cfg.IssueWidth))

	if err != nil {
		return power.Tally{}, err
	}
	t.GateViolations = p.ViolationCycles(planes...)
	return t, nil
}
