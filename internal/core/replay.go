package core

// This file is the fused multi-scheme replay engine: one streaming pass
// over the encoded trace evaluates any number of timing-neutral schemes
// at once. The sequential EvaluateTiming path in core.go streams the
// trace once per scheme; the entry points here send the packed-capable
// schemes to the bit-packed kernel and fan each cycle of one shared pass
// out to every remaining scheme's gating controller and power
// accountant, producing Results bit-identical to sequential replays
// (golden-tested).

import (
	"fmt"

	"dcg/internal/gating"
	"dcg/internal/power"
	"dcg/internal/usagetrace"
)

// ReplayMulti streams this timing's captured trace through every sink in
// a single pass; each sink observes exactly the cycle stream the live
// core delivered. No decoded form is built. Returns the replayed cycle
// count.
func (t *Timing) ReplayMulti(sinks ...usagetrace.Sink) (uint64, error) {
	if t == nil || t.Trace == nil {
		return 0, fmt.Errorf("core: fused replay requires a captured timing trace")
	}
	rd, err := t.Trace.Reader()
	if err != nil {
		return 0, err
	}
	return usagetrace.ReplayAll(rd, sinks...)
}

// EvaluateTimingAll evaluates every given timing-neutral scheme kind
// against one captured timing in a single fused replay pass, returning
// one Result per kind in order. Equivalent to — and bit-identical with —
// calling EvaluateTiming once per kind, but the packed-capable kinds
// read the trace's memoized packed view and the rest share one
// streaming pass, regardless of how many schemes ride it.
func (s *Simulator) EvaluateTimingAll(t *Timing, kinds []SchemeKind) ([]*Result, error) {
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
	return s.EvaluateTimingSchemes(t, schemes)
}

// EvaluateTimingSchemes is EvaluateTimingAll with caller-provided scheme
// instances (partial-DCG ablations). Every scheme must be timing-neutral
// — fresh, never throttling, deriving state only from the events and
// usage vectors it is fed.
//
// When the simulator carries Telemetry the evaluation falls back to
// sequential per-scheme replays: a telemetry recorder observes one
// scheme's run, and feeding it N interleaved schemes would corrupt its
// per-cycle stream.
func (s *Simulator) EvaluateTimingSchemes(t *Timing, schemes []gating.Scheme) ([]*Result, error) {
	if t == nil || t.Trace == nil {
		return nil, fmt.Errorf("core: evaluation requires a captured timing trace")
	}
	if len(schemes) == 0 {
		return nil, nil
	}
	for _, scheme := range schemes {
		if err := checkTraceChannels(t, scheme); err != nil {
			return nil, err
		}
	}
	if s.Telemetry != nil {
		results := make([]*Result, len(schemes))
		for i, scheme := range schemes {
			res, err := s.EvaluateTimingScheme(t, scheme)
			if err != nil {
				return nil, err
			}
			results[i] = res
		}
		return results, nil
	}

	// Split-set routing: every packed-capable scheme is derived from the
	// trace's bit-planes (bit-identical results, golden-tested); the rest
	// share one scalar fused pass.
	tallies, _, err := s.packedTallies(t, schemes)
	if err != nil {
		return nil, err
	}
	results := make([]*Result, len(schemes))
	var scalarIdx []int
	for i, scheme := range schemes {
		if tallies == nil || !tallies[i].ok {
			scalarIdx = append(scalarIdx, i)
			continue
		}
		res, err := s.packedResult(t, scheme, tallies[i])
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	if tallies != nil {
		packedSchemeCount.Add(uint64(len(schemes) - len(scalarIdx)))
		packedFallbackCount.Add(uint64(len(scalarIdx)))
	}
	if len(scalarIdx) > 0 {
		if err := s.evalScalarSubset(t, schemes, scalarIdx, results); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// evalScalarSubset runs the scalar fused engine over the schemes
// selected by idx, writing each Result into results[i]. One power model
// + accountant lane per scheme: the lanes are fully independent
// (construction is deterministic, replay state is per-lane), so each
// lane integrates exactly the float sequence its sequential replay
// would.
func (s *Simulator) evalScalarSubset(t *Timing, schemes []gating.Scheme, idx []int, results []*Result) error {
	models := make([]*power.Model, len(idx))
	accts := make([]*power.Accountant, len(idx))
	sinks := make([]usagetrace.Sink, len(idx))
	for j, i := range idx {
		scheme := schemes[i]
		model, err := power.NewModel(t.Machine)
		if err != nil {
			return err
		}
		acct := power.NewAccountant(model, scheme)
		acct.LeakageFrac = s.LeakageFrac
		models[j] = model
		accts[j] = acct
		sinks[j] = usagetrace.Sink{Issue: scheme, Cycle: acct}
	}

	cycles, err := t.ReplayMulti(sinks...)
	if err != nil {
		return err
	}
	if cycles != t.CPUStats.Cycles {
		return fmt.Errorf("core: trace replays %d cycles but timing ran %d", cycles, t.CPUStats.Cycles)
	}

	for j, i := range idx {
		scheme := schemes[i]
		if err := accts[j].Validate(); err != nil {
			return fmt.Errorf("core: scheme %s: %w", scheme.Name(), err)
		}
		results[i] = resultFor(t, scheme, models[j], accts[j])
	}
	return nil
}
