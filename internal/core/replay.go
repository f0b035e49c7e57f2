package core

// This file evaluates schemes against a captured Timing. Production runs
// on one engine, the packed kernel: gating.PackedTally tallies every
// registered scheme from the trace's bit-packed view (usagetrace.Packed)
// in O(cycles/64)-ish work — the PLB family from a capture its throttle
// drove — and the tally fills a lane's accountant. EvaluateScalar is the
// other engine, the scalar fused pass, which streams the encoded trace
// once and fans each cycle out to every scheme's gating controller and
// power accountant. It is the reference the goldens and the differential
// fuzzer hold the kernel to for the timing-neutral schemes, and no
// production path reaches it. Both give the Result a live run gives, bit
// for bit.

import (
	"errors"
	"fmt"
	"maps"
	"sync/atomic"

	"dcg/internal/gating"
	"dcg/internal/usagetrace"
)

// packedSchemeCount counts the scheme evaluations the packed kernel has
// served, process-wide, for the service's /metrics endpoint and the
// routing regression tests.
var packedSchemeCount atomic.Uint64

// PackedReplaySchemes returns how many scheme evaluations the packed
// kernel has served process-wide.
func PackedReplaySchemes() uint64 { return packedSchemeCount.Load() }

// PackedReplayFallbacks returns 0. Evaluations no longer fall back to
// the scalar engine: EvaluateTimingSchemes refuses a scheme the packed
// kernel cannot tally. The function stays only because the benchmark
// harness (bench/) still reads it; ROADMAP item M deletes it with that
// reader.
func PackedReplayFallbacks() uint64 { return 0 }

// EvaluateTimingAll evaluates every given scheme kind against one
// captured timing on the packed kernel, returning one Result per kind in
// order. Every kind reads the trace's memoized packed view, and each must
// have the throttle the timing was captured under (EvaluateTimingSchemes).
func (s *Simulator) EvaluateTimingAll(t *Timing, kinds []SchemeKind) ([]*Result, error) {
	schemes := make([]gating.Scheme, len(kinds))
	for i, k := range kinds {
		sc, err := s.makeScheme(k)
		if err != nil {
			return nil, err
		}
		schemes[i] = sc
	}
	return s.EvaluateTimingSchemes(t, schemes)
}

// EvaluateTimingSchemes is EvaluateTimingAll with caller-provided scheme
// instances (partial-DCG ablations). Every scheme must be one the packed
// kernel tallies: an unwrapped registered scheme or DCG ablation, built
// for the timing's machine, whose throttle is the one the timing ran
// under — none for the timing-neutral schemes and the ablations, the
// registered PLB's for the PLB family, whose parameters must be the
// registered ones. Any other scheme fails the call with an error naming
// it; nothing falls back to the scalar engine. The window and
// oracle-schedule ablations of PLB run live (RunBenchmarkScheme).
func (s *Simulator) EvaluateTimingSchemes(t *Timing, schemes []gating.Scheme) ([]*Result, error) {
	if err := s.checkReplay(t, schemes); err != nil || len(schemes) == 0 {
		return nil, err
	}
	p, err := t.Trace.Decode()
	if err != nil {
		return nil, err
	}
	if p.Cycles() != t.CPUStats.Cycles {
		return nil, fmt.Errorf("core: trace replays %d cycles but timing ran %d", p.Cycles(), t.CPUStats.Cycles)
	}
	results := make([]*Result, len(schemes))
	for i, scheme := range schemes {
		tally, lead, err := gating.PackedTally(p, scheme, t.Machine)
		if err != nil {
			return nil, fmt.Errorf("core: %s, scheme %s (position %d): %w", t.Benchmark, scheme.Name(), i, err)
		}
		l, err := s.newLane(t.Machine, scheme)
		if err != nil {
			return nil, err
		}
		l.acct.Tally = tally
		if results[i], err = l.result(t); err != nil {
			return nil, err
		}
		// The scheme instance was never fed, so result's type switch read
		// zero lead violations and no mode cycles; install the packed
		// kernel's count and the capture throttle's modes.
		results[i].LeadViolations = lead
		if results[i].PLBModeCycles != nil {
			results[i].PLBModeCycles = maps.Clone(t.PLBModeCycles)
		}
	}
	packedSchemeCount.Add(uint64(len(schemes)))
	return results, nil
}

// EvaluateScalar evaluates every scheme on the scalar fused engine. It is
// the reference the packed kernel is golden-tested and fuzzed against,
// and takes any timing-neutral scheme, wrapped or custom ones included:
// fresh, never throttling, deriving state only from the events and usage
// vectors it is fed.
func (s *Simulator) EvaluateScalar(t *Timing, schemes []gating.Scheme) ([]*Result, error) {
	if err := s.checkReplay(t, schemes); err != nil || len(schemes) == 0 {
		return nil, err
	}
	return s.scalarPass(t, schemes)
}

// checkReplay refuses an evaluation no replay can serve: a Timing without
// a trace, a scheme whose throttle is not the one the timing ran under,
// and a registered scheme whose channels the trace lacks. A scheme whose
// name is not registered (partial-DCG ablations, custom controllers) is
// taken as unthrottled and usage-only; a value-dependent scheme replayed
// over a channel-less trace would silently degrade, and a scheme over a
// timing another throttle shaped would be wrong, so the mismatch fails
// loudly here.
func (s *Simulator) checkReplay(t *Timing, schemes []gating.Scheme) error {
	if t == nil || t.Trace == nil {
		return errors.New("core: evaluation requires a captured timing trace")
	}
	for _, scheme := range schemes {
		name := gating.UnwrapScheme(scheme).Name()
		info, _ := SchemeInfoFor(SchemeKind(name))
		if info.Timing != t.Throttle {
			return fmt.Errorf("core: scheme %s needs a capture under throttle %q, but the timing ran under %q "+
				`("" is none)`, name, info.Timing, t.Throttle)
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
