package core

// This file is the replay router: it evaluates timing-neutral schemes
// against a captured Timing on one of two engines. Each scheme the packed
// kernel accepts (gating.PackedTally: none, dcg and its ablations,
// oracle, lector) is tallied from the trace's bit-planes (packed.go). The
// rest (the value-dependent ddcg family, wrapped schemes, schemes built
// for another machine) share one scalar fused pass, which streams the
// encoded trace once and fans each cycle out to every scheme's gating
// controller and power accountant. Both engines give the Result a live
// run gives, bit for bit (golden-tested).

import (
	"errors"
	"fmt"

	"dcg/internal/gating"
	"dcg/internal/usagetrace"
)

// EvaluateTimingAll evaluates every given timing-neutral scheme kind
// against one captured timing, returning one Result per kind in order:
// the packed-capable kinds read the trace's memoized packed view and the
// rest share one streaming pass, regardless of how many schemes ride it.
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
func (s *Simulator) EvaluateTimingSchemes(t *Timing, schemes []gating.Scheme) ([]*Result, error) {
	if err := s.checkReplay(t, schemes); err != nil || len(schemes) == 0 {
		return nil, err
	}
	tallies, err := packedTallies(t, schemes)
	if err != nil {
		return nil, err
	}
	results := make([]*Result, len(schemes))
	var scalarIdx []int
	var scalar []gating.Scheme
	for i, pt := range tallies {
		if !pt.ok {
			scalarIdx = append(scalarIdx, i)
			scalar = append(scalar, schemes[i])
			continue
		}
		if results[i], err = s.packedResult(t, schemes[i], pt); err != nil {
			return nil, err
		}
	}
	packedSchemeCount.Add(uint64(len(schemes) - len(scalar)))
	packedFallbackCount.Add(uint64(len(scalar)))
	if len(scalar) > 0 {
		scalarRes, err := s.scalarPass(t, scalar)
		if err != nil {
			return nil, err
		}
		for j, i := range scalarIdx {
			results[i] = scalarRes[j]
		}
	}
	return results, nil
}

// EvaluateScalar evaluates every scheme on the scalar fused engine, the
// route EvaluateTimingSchemes takes for the schemes the packed kernel
// refuses. It is the reference the packed kernel is golden-tested
// against. The schemes must be timing-neutral, as for
// EvaluateTimingSchemes.
func (s *Simulator) EvaluateScalar(t *Timing, schemes []gating.Scheme) ([]*Result, error) {
	if err := s.checkReplay(t, schemes); err != nil || len(schemes) == 0 {
		return nil, err
	}
	return s.scalarPass(t, schemes)
}

// checkReplay refuses an evaluation no replay can serve: a simulator with
// Telemetry (it observes live runs only), a Timing without a trace, and a
// registered scheme whose channels the trace lacks. A scheme whose name
// is not registered (partial-DCG ablations, custom controllers) is taken
// as usage-only; a value-dependent scheme replayed over a channel-less
// trace would silently degrade, so the mismatch fails loudly here.
func (s *Simulator) checkReplay(t *Timing, schemes []gating.Scheme) error {
	if s.Telemetry != nil {
		return errors.New("core: telemetry observes live runs only; evaluate the trace without it")
	}
	if t == nil || t.Trace == nil {
		return errors.New("core: evaluation requires a captured timing trace")
	}
	for _, scheme := range schemes {
		info, ok := SchemeInfoFor(SchemeKind(gating.UnwrapScheme(scheme).Name()))
		if !ok {
			continue
		}
		for _, ch := range info.Channels {
			if !t.Trace.HasChannel(ch) {
				return fmt.Errorf("core: scheme %s requires trace channel %q but the capture carries %v",
					info.Kind, ch, t.Trace.Channels())
			}
		}
	}
	return nil
}

// scalarPass is the scalar fused engine: one streaming pass over the
// encoded trace feeds every scheme's lane, each cycle's issue events
// before its usage vector, in the live core's delivery order. The lanes
// share no state, so each integrates exactly the float sequence a live
// run of its scheme would.
func (s *Simulator) scalarPass(t *Timing, schemes []gating.Scheme) ([]*Result, error) {
	lanes := make([]lane, len(schemes))
	sinks := make([]usagetrace.Sink, len(schemes))
	for i, scheme := range schemes {
		l, err := s.newLane(t.Machine, scheme)
		if err != nil {
			return nil, err
		}
		lanes[i] = l
		sinks[i] = usagetrace.Sink{Issue: scheme, Cycle: l.acct}
	}
	rd, err := t.Trace.Reader()
	if err != nil {
		return nil, err
	}
	cycles, err := usagetrace.ReplayAll(rd, sinks...)
	if err != nil {
		return nil, err
	}
	if cycles != t.CPUStats.Cycles {
		return nil, fmt.Errorf("core: trace replays %d cycles but timing ran %d", cycles, t.CPUStats.Cycles)
	}
	results := make([]*Result, len(lanes))
	for i, l := range lanes {
		if results[i], err = l.result(t); err != nil {
			return nil, err
		}
	}
	return results, nil
}
