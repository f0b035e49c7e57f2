package gating

// This file is the word-at-a-time evaluation of the timing-neutral
// schemes: instead of replaying a trace cycle by cycle through
// OnIssue/Gates/OnCycle callbacks, it derives each scheme's complete
// power.Tally — the order-free integral the accountant would have
// accumulated — directly from the bit-planes and schedule-mirror
// aggregates of the trace's packed view (usagetrace.Packed). The scheme
// semantics are closed-form here because each structure class is
// independent:
//
//   - a gated class's enabled-instance sum is a decode-time aggregate of
//     the mirrored DCG schedule (popcounts of schedule masks, summed
//     port/bus counts, summed latch occupancy);
//   - an ungated class burns capacity x cycles;
//   - gate violations are popcounts of OR'd violation bit-planes
//     (usage-exceeded-schedule planes for gated classes, lazy
//     usage-exceeded-capacity planes for ungated ones).
//
// The tallies are exact — integer sums plus float series reproduced in
// the scalar accountant's operation order — so Results derived from them
// are bit-identical to scalar replay (golden-tested in internal/core).

import (
	"math/bits"

	"dcg/internal/config"
	"dcg/internal/cpu"
	"dcg/internal/power"
	"dcg/internal/usagetrace"
)

// Packable reports whether PackedTally knows the scheme's type. A
// caller with no packable scheme in its set need not build the packed
// view at all.
func Packable(s Scheme) bool {
	switch s.(type) {
	case *None, *DCG, *Oracle, *Lector:
		return true
	}
	return false
}

// PackedTally derives the power.Tally a full scalar replay of the scheme
// over the trace would produce, plus the scheme's lead-violation count,
// from the trace's packed view, without feeding the scheme a single
// cycle. ok is false when the scheme cannot be packed-evaluated and the
// caller must fall back to scalar replay: a type Packable rejects (PLB
// throttles, Observed carries a telemetry recorder, the value-dependent
// family needs the per-cycle stream), a scheme built for a different
// machine than the trace's, or a bus schedule exceeding the histogram's
// exact range. The scheme instance is never mutated.
func PackedTally(p *usagetrace.Packed, s Scheme, machine config.Config) (t power.Tally, lead uint64, ok bool) {
	if p.BackLatchStages() != machine.BackEndLatchStages() {
		return power.Tally{}, 0, false
	}
	switch sc := s.(type) {
	case *None:
		if sc.cfg != machine {
			return power.Tally{}, 0, false
		}
		t = fullTally(p, machine)
		t.ControlCycles = 0
		t.GateViolations = overFullViolations(p, machine)
		return t, 0, true
	case *DCG:
		if sc.cfg != machine {
			return power.Tally{}, 0, false
		}
		t, ok = dcgTally(p, machine, sc.opts)
		return t, p.LeadViolations(), ok
	case *Oracle:
		if sc.cfg != machine || sc.frontDepth < 1 {
			return power.Tally{}, 0, false
		}
		t, ok = dcgTally(p, machine, AllDCGOptions())
		if !ok {
			return power.Tally{}, 0, false
		}
		t.IssueQueueFracSum = p.IssueQueueFracSum(machine.WindowSize)
		t.FrontFullCycles = 0
		t.FrontSlotsOn = p.FrontSlotsSum(sc.frontDepth)
		return t, p.LeadViolations(), true
	case *Lector:
		if sc.cfg != machine {
			return power.Tally{}, 0, false
		}
		return lectorTally(p, machine), 0, true
	}
	return power.Tally{}, 0, false
}

// lectorTally derives the stage-level occupancy scheme's tally in closed
// form: an occupied stage burns width slots, an empty one zero, and the
// control-gate count is the empty-stage total with the all-idle cycles
// collapsed to the single master gate — exactly the scalar Gates rule,
// summed over the latch-non-zero planes.
func lectorTally(p *usagetrace.Packed, cfg config.Config) power.Tally {
	t := fullTally(p, cfg)
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
	t.GateViolations = overFullViolations(p, cfg)
	return t
}

// overFullViolations counts the cycles on which usage exceeded capacity
// in any ungated structure class: the violation set of the baseline and
// lector schemes.
func overFullViolations(p *usagetrace.Packed, cfg config.Config) uint64 {
	return p.ViolationCycles(
		p.OverFullUnits(fuCounts(cfg)),
		p.OverFullDPorts(cfg.DL1.Ports),
		p.OverFullBus(cfg.IssueWidth),
		p.OverFullLatch(cfg.IssueWidth),
	)
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
// per-cycle predicate would test.
func dcgTally(p *usagetrace.Packed, cfg config.Config, opts DCGOptions) (power.Tally, bool) {
	t := fullTally(p, cfg)
	planes := make([][]uint64, 0, 5)

	if opts.GateUnits {
		for ft := 0; ft < int(cpu.NumFUTypes); ft++ {
			t.UnitOn[ft] = p.UnitSchedOnSum(cpu.FUType(ft))
		}
		planes = append(planes, p.UnitSchedViolationPlane())
	} else {
		planes = append(planes, p.OverFullUnits(fuCounts(cfg)))
	}

	if opts.GateLatches {
		t.BackSlotsOn = p.BackLatchSum()
		// Gated latches copy the usage vector: enabled slots always cover
		// used slots, no violation plane.
	} else {
		planes = append(planes, p.OverFullLatch(cfg.IssueWidth))
	}

	if opts.GateDCache {
		t.DPortsOn = p.DPortSchedSum()
		planes = append(planes, p.DPortSchedViolationPlane())
	} else {
		planes = append(planes, p.OverFullDPorts(cfg.DL1.Ports))
	}

	if opts.GateBus {
		sum, ok := p.BusSchedCappedSum(cfg.IssueWidth)
		if !ok {
			return power.Tally{}, false
		}
		t.BusOn = sum
		// Enabled drivers are min(schedule, width): usage can exceed that
		// by beating the raw schedule or by exceeding the width cap.
		planes = append(planes, p.BusSchedViolationPlane(), p.OverFullBus(cfg.IssueWidth))
	} else {
		planes = append(planes, p.OverFullBus(cfg.IssueWidth))
	}

	t.GateViolations = p.ViolationCycles(planes...)
	return t, true
}
