package core

// This file is the packed engine behind the replay router (replay.go):
// it tallies each scheme gating.PackedTally accepts from the trace's
// bit-packed columnar view (usagetrace.Packed) in O(cycles/64)-ish work
// instead of a per-cycle callback replay, with Results bit-identical to
// the scalar fused engine. A scheme the kernel refuses (the ddcg family,
// wrapped schemes, a scheme built for another machine, a bus schedule
// beyond the histogram's exact range) falls back to the scalar pass on
// its own; the packed schemes of the set stay on the kernel.

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

// PackedReplayFallbacks returns how many routed replay evaluations fell
// back to the scalar fused engine (wrapped or foreign scheme types,
// machine mismatch, out-of-range bus schedules).
func PackedReplayFallbacks() uint64 { return packedFallbackCount.Load() }

// packedTally is one scheme's packed-kernel outcome; ok is false when
// the scheme must be evaluated by the scalar engine instead.
type packedTally struct {
	tally power.Tally
	lead  uint64
	ok    bool
}

// packedTallies runs the packed kernel over each scheme of the set. The
// trace's packed view is built (or reused) only when the set holds a
// scheme the kernel knows; a scalar-only set gets all-fallback tallies
// without one. A decode failure or a trace/timing cycle disagreement is
// an error.
func packedTallies(t *Timing, schemes []gating.Scheme) ([]packedTally, error) {
	tallies := make([]packedTally, len(schemes))
	if !slices.ContainsFunc(schemes, gating.Packable) {
		return tallies, nil
	}
	p, err := t.Trace.Decode()
	if err != nil {
		return nil, err
	}
	if p.Cycles() != t.CPUStats.Cycles {
		return nil, fmt.Errorf("core: trace replays %d cycles but timing ran %d",
			p.Cycles(), t.CPUStats.Cycles)
	}
	for i, scheme := range schemes {
		pt := &tallies[i]
		pt.tally, pt.lead, pt.ok = gating.PackedTally(p, scheme, t.Machine)
	}
	return tallies, nil
}

// packedResult turns a packed-kernel tally into the scheme's Result: a
// lane whose accountant holds the kernel's tally instead of a replayed
// one.
func (s *Simulator) packedResult(t *Timing, scheme gating.Scheme, pt packedTally) (*Result, error) {
	l, err := s.newLane(t.Machine, scheme)
	if err != nil {
		return nil, err
	}
	l.acct.Tally = pt.tally
	res, err := l.result(t)
	if err != nil {
		return nil, err
	}
	// The scheme instance was never fed, so result's type switch read
	// zero lead violations; install the packed kernel's count.
	res.LeadViolations = pt.lead
	return res, nil
}
