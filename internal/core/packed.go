package core

// This file routes replay evaluations through the bit-packed columnar
// kernel (usagetrace.Packed + gating.PackedTally): for eligible scheme
// sets, per-scheme results are derived from the trace's bit-planes and
// aggregates in O(cycles/64)-ish work instead of a full per-cycle
// callback replay, with Results bit-identical to the scalar fused
// engine. Ineligible schemes (PLB is timing-changing and never gets
// here; telemetry runs, mismatched machine configs, bus schedules
// beyond the histogram's exact range) fall back to scalar ReplayAll
// transparently — per scheme on the automatic route, whole-set on the
// strict EvaluateTimingPacked entry.

import (
	"fmt"
	"slices"
	"sync/atomic"

	"dcg/internal/gating"
	"dcg/internal/power"
)

// Package-wide packed-replay accounting, exported for the service's
// /metrics endpoint and the routing regression tests. Monotonic
// process-lifetime counters.
var (
	packedSchemeCount   atomic.Uint64
	packedFallbackCount atomic.Uint64
)

// PackedReplaySchemes returns how many scheme evaluations the packed
// kernel has served process-wide.
func PackedReplaySchemes() uint64 { return packedSchemeCount.Load() }

// PackedReplayFallbacks returns how many replay evaluations requested
// the packed kernel but fell back to the scalar fused engine (wrapped or
// foreign scheme types, machine mismatch, out-of-range bus schedules).
func PackedReplayFallbacks() uint64 { return packedFallbackCount.Load() }

// EvaluateTimingPacked evaluates timing-neutral scheme kinds against a
// captured timing strictly through the packed kernel: unlike
// EvaluateTimingAll — which routes here automatically and falls back to
// scalar replay when it must — this entry returns an error if the set
// cannot be packed-evaluated. For benchmarks and tests that must know
// which engine ran.
func (s *Simulator) EvaluateTimingPacked(t *Timing, kinds []SchemeKind) ([]*Result, error) {
	if t == nil || t.Trace == nil {
		return nil, fmt.Errorf("core: evaluation requires a captured timing trace")
	}
	schemes := make([]gating.Scheme, len(kinds))
	for i, k := range kinds {
		if !TimingNeutral(k) {
			return nil, fmt.Errorf("core: scheme %v changes timing and cannot be evaluated by replay", k)
		}
		sc, err := s.makeScheme(k)
		if err != nil {
			return nil, err
		}
		schemes[i] = sc
	}
	results, ok, err := s.evalPackedSchemes(t, schemes)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("core: scheme set is not packed-evaluable (telemetry, disabled, or ineligible scheme)")
	}
	return results, nil
}

// packedTally is one scheme's packed-kernel outcome; ok is false when
// the scheme must be evaluated by the scalar engine instead.
type packedTally struct {
	tally power.Tally
	lead  uint64
	ok    bool
}

// packedTallies runs the packed kernel over each scheme of the set and
// reports how many it could evaluate. tallies is nil when the simulator
// cannot take the packed route at all — telemetry attached or packed
// replay disabled. The trace's packed view is built (or reused) only
// when the set holds a scheme the kernel knows; a scalar-only set gets
// all-fallback tallies without one. A decode failure or a trace/timing
// cycle disagreement is an error on any path.
func (s *Simulator) packedTallies(t *Timing, schemes []gating.Scheme) (tallies []packedTally, npacked int, err error) {
	if s.Telemetry != nil || s.DisablePackedReplay {
		return nil, 0, nil
	}
	tallies = make([]packedTally, len(schemes))
	if !slices.ContainsFunc(schemes, gating.Packable) {
		return tallies, 0, nil
	}
	p, err := t.Trace.Decode()
	if err != nil {
		return nil, 0, err
	}
	if p.Cycles() != t.CPUStats.Cycles {
		return nil, 0, fmt.Errorf("core: trace replays %d cycles but timing ran %d",
			p.Cycles(), t.CPUStats.Cycles)
	}
	for i, scheme := range schemes {
		pt := &tallies[i]
		pt.tally, pt.lead, pt.ok = gating.PackedTally(p, scheme, t.Machine)
		if pt.ok {
			npacked++
		}
	}
	return tallies, npacked, nil
}

// evalPackedSchemes attempts the packed evaluation of a whole scheme
// set. ok=false (with nil error) means at least one scheme cannot be
// packed-evaluated and the caller must route around this entry; an
// error means the evaluation is invalid on any path. All-or-nothing by
// contract — this is the strict engine under EvaluateTimingPacked; the
// automatic route (EvaluateTimingSchemes) splits mixed sets per scheme
// instead of calling this.
func (s *Simulator) evalPackedSchemes(t *Timing, schemes []gating.Scheme) ([]*Result, bool, error) {
	tallies, npacked, err := s.packedTallies(t, schemes)
	if err != nil {
		return nil, false, err
	}
	if tallies == nil || npacked != len(schemes) {
		if tallies != nil {
			packedFallbackCount.Add(uint64(len(schemes)))
		}
		return nil, false, nil
	}
	results := make([]*Result, len(schemes))
	for i, scheme := range schemes {
		res, err := s.packedResult(t, scheme, tallies[i])
		if err != nil {
			return nil, false, err
		}
		results[i] = res
	}
	packedSchemeCount.Add(uint64(len(schemes)))
	return results, true, nil
}

// packedResult turns a packed-kernel tally into the scheme's Result —
// the same model/accountant construction the scalar engine performs,
// with the kernel's tally installed in place of a replayed one.
func (s *Simulator) packedResult(t *Timing, scheme gating.Scheme, pt packedTally) (*Result, error) {
	model, err := power.NewModel(t.Machine)
	if err != nil {
		return nil, err
	}
	acct := power.NewAccountant(model, scheme)
	acct.LeakageFrac = s.LeakageFrac
	acct.Tally = pt.tally
	if err := acct.Validate(); err != nil {
		return nil, fmt.Errorf("core: scheme %s: %w", scheme.Name(), err)
	}
	res := resultFor(t, scheme, model, acct)
	// The scheme instance was never fed, so resultFor's type switch
	// read zero lead violations; install the packed kernel's count.
	res.LeadViolations = pt.lead
	return res, nil
}
