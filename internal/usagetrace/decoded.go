package usagetrace

import (
	"fmt"
	"io"
	"sync/atomic"

	"dcg/internal/cpu"
)

// Decoded is a trace decoded exactly once into columnar
// (struct-of-arrays) form: one flat slice per usage field, indexed by
// cycle, plus a flattened issue-event stream with per-cycle offsets.
// Replaying from it costs slice reads instead of varint decoding, and a
// Decoded is immutable after construction, so one decode can serve any
// number of concurrent replays — the fused engine under every
// multi-scheme evaluation (core.Timing.ReplayMulti, simrun batch and
// sweep replays).
type Decoded struct {
	name   string
	stages int
	cycles uint64

	// Usage columns (index == cycle).
	issue, fpIssue, memIssue       []int32
	intALU, intMult, fpALU, fpMult []uint32
	dport, resultBus               []int32
	commit, fetchN, occ            []int32

	// backLatch holds the per-stage latch flow row-major:
	// cycle c, stage s at backLatch[c*stages+s].
	backLatch []int32

	// channels is the trace's channel table (usage first);
	// backLatchNewVal is the latchvalue channel's column, row-major like
	// backLatch, and nil when the trace does not carry that channel.
	channels        []string
	backLatchNewVal []int32

	// events is every issue event in capture order; cycle c's events are
	// events[evOff[c]:evOff[c+1]].
	events []cpu.IssueEvent
	evOff  []uint32

	// packed is the bit-packed columnar view (one uint64 word per 64
	// cycles per signal), built by the same decode pass. Never nil on a
	// successfully decoded trace.
	packed *Packed
}

// decodeColumns preallocation is bounded: the cycle hint comes from the
// trace header, which is untrusted input, and an absurd value must not
// translate into a multi-GB make() before a single record is read. Real
// giants still decode — append growth takes over past the cap.
const maxPreallocCycles = 1 << 22

// maxDecodedEvents bounds the flattened issue-event stream. evOff entries
// are uint32 offsets into it, so len(events) must stay strictly below
// 2^32-1: at exactly ^uint32(0) the offset becomes ambiguous with the
// maximum encodable value. A var (not const) so the decode-error tests
// can lower it and exercise the boundary without a 4-billion-event trace.
var maxDecodedEvents = uint64(^uint32(0))

// Package-wide fused-replay accounting, exported for the service's
// /metrics endpoint and the decode-count regression tests. Monotonic
// process-lifetime counters.
var (
	decodeCount      atomic.Uint64
	decodeReuseCount atomic.Uint64
	fusedSchemeCount atomic.Uint64
)

// Decodes returns how many full columnar trace decodes have run
// process-wide (each Trace pays at most one).
func Decodes() uint64 { return decodeCount.Load() }

// DecodeReuses returns how many Trace.Decode calls were served by an
// already-memoized decode instead of re-reading the encoded stream.
func DecodeReuses() uint64 { return decodeReuseCount.Load() }

// FusedSchemes returns how many scheme sinks have been fed by fused
// replay passes (ReplayAll adds one per sink per pass).
func FusedSchemes() uint64 { return fusedSchemeCount.Load() }

// Name returns the traced workload's name.
func (d *Decoded) Name() string { return d.name }

// BackLatchStages returns the machine's gatable back-end latch stage count.
func (d *Decoded) BackLatchStages() int { return d.stages }

// Channels returns the decoded trace's channel table, usage first.
func (d *Decoded) Channels() []string { return d.channels }

// HasChannel reports whether the decoded trace carries the named channel.
func (d *Decoded) HasChannel(name string) bool {
	for _, ch := range d.channels {
		if ch == name {
			return true
		}
	}
	return false
}

// Cycles returns the decoded cycle count.
func (d *Decoded) Cycles() uint64 { return d.cycles }

// Events returns the total decoded issue-event count.
func (d *Decoded) Events() int { return len(d.events) }

// decodeColumns streams the encoded trace once and builds the columnar
// form. cyclesHint (the trace's known cycle count) sizes the columns up
// front so the build itself does not reallocate per cycle; the hint is
// capped (maxPreallocCycles, in uint64 space so it cannot go negative
// through a 32-bit int conversion) and then verified against the cycles
// actually decoded, so a header that disagrees with the stream fails
// loudly instead of yielding silently short columns.
func decodeColumns(r *Reader, cyclesHint uint64) (*Decoded, error) {
	hint := cyclesHint
	if hint > maxPreallocCycles {
		hint = maxPreallocCycles
	}
	n := int(hint)
	stages := r.BackLatchStages()
	latchHint := uint64(n) * uint64(stages)
	if latchHint > maxPreallocCycles {
		latchHint = maxPreallocCycles
	}
	d := &Decoded{
		name:      r.Name(),
		stages:    stages,
		channels:  r.Channels(),
		issue:     make([]int32, 0, n),
		fpIssue:   make([]int32, 0, n),
		memIssue:  make([]int32, 0, n),
		intALU:    make([]uint32, 0, n),
		intMult:   make([]uint32, 0, n),
		fpALU:     make([]uint32, 0, n),
		fpMult:    make([]uint32, 0, n),
		dport:     make([]int32, 0, n),
		resultBus: make([]int32, 0, n),
		commit:    make([]int32, 0, n),
		fetchN:    make([]int32, 0, n),
		occ:       make([]int32, 0, n),
		backLatch: make([]int32, 0, latchHint),
		evOff:     make([]uint32, 1, n+1),
	}
	hasLatchValue := r.hasLatchValue
	if hasLatchValue {
		d.backLatchNewVal = make([]int32, 0, latchHint)
	}
	for {
		events, u, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		d.events = append(d.events, events...)
		if uint64(len(d.events)) >= maxDecodedEvents {
			return nil, fmt.Errorf("usagetrace: trace has %d issue events (limit %d)",
				len(d.events), maxDecodedEvents-1)
		}
		d.evOff = append(d.evOff, uint32(len(d.events)))
		d.issue = append(d.issue, int32(u.IssueCount))
		d.fpIssue = append(d.fpIssue, int32(u.FPIssueCount))
		d.memIssue = append(d.memIssue, int32(u.MemIssueCount))
		d.intALU = append(d.intALU, u.IntALUBusy)
		d.intMult = append(d.intMult, u.IntMultBusy)
		d.fpALU = append(d.fpALU, u.FPALUBusy)
		d.fpMult = append(d.fpMult, u.FPMultBusy)
		d.dport = append(d.dport, int32(u.DPortUsed))
		d.resultBus = append(d.resultBus, int32(u.ResultBus))
		d.commit = append(d.commit, int32(u.CommitCount))
		d.fetchN = append(d.fetchN, int32(u.FetchCount))
		d.occ = append(d.occ, int32(u.WindowOccupancy))
		for _, v := range u.BackLatch {
			d.backLatch = append(d.backLatch, int32(v))
		}
		if hasLatchValue {
			for _, v := range u.BackLatchNewVal {
				d.backLatchNewVal = append(d.backLatchNewVal, int32(v))
			}
		}
		d.cycles++
	}
	if d.cycles != cyclesHint {
		return nil, fmt.Errorf("usagetrace: decoded %d cycles but trace header declares %d",
			d.cycles, cyclesHint)
	}
	d.packed = buildPacked(d)
	return d, nil
}

// Packed returns the bit-packed columnar view built alongside the scalar
// columns. Immutable, like the Decoded that owns it.
func (d *Decoded) Packed() *Packed { return d.packed }

// fillUsage reconstructs cycle c's usage vector into the caller's
// scratch. u.BackLatch must already have length stages.
func (d *Decoded) fillUsage(u *cpu.Usage, c uint64) {
	u.Cycle = c
	u.IssueCount = int(d.issue[c])
	u.FPIssueCount = int(d.fpIssue[c])
	u.MemIssueCount = int(d.memIssue[c])
	u.IntALUBusy = d.intALU[c]
	u.IntMultBusy = d.intMult[c]
	u.FPALUBusy = d.fpALU[c]
	u.FPMultBusy = d.fpMult[c]
	u.DPortUsed = int(d.dport[c])
	u.ResultBus = int(d.resultBus[c])
	u.CommitCount = int(d.commit[c])
	u.FetchCount = int(d.fetchN[c])
	u.WindowOccupancy = int(d.occ[c])
	base := int(c) * d.stages
	for s := 0; s < d.stages; s++ {
		u.BackLatch[s] = int(d.backLatch[base+s])
	}
	if d.backLatchNewVal != nil {
		for s := 0; s < d.stages; s++ {
			u.BackLatchNewVal[s] = int(d.backLatchNewVal[base+s])
		}
	}
}

// Sink is one consumer of a fused replay: a scheme's issue listener plus
// its per-cycle observer chain. Either half may be nil.
type Sink struct {
	Issue cpu.IssueListener
	Cycle cpu.Observer
}

// ReplayAll replays the decoded trace through every sink in a single
// pass. Each sink observes exactly the sequence a sequential Replay
// would deliver — cycle c's issue events strictly before cycle c's
// usage vector — so per-sink results are bit-identical to one-at-a-time
// replays; the fusion only shares the decode and the per-cycle usage
// reconstruction across sinks. The usage vector passed to OnCycle is
// reused between cycles (the live core's contract); sinks must not
// retain it. Safe to call concurrently on one Decoded.
func ReplayAll(d *Decoded, sinks ...Sink) uint64 {
	fusedSchemeCount.Add(uint64(len(sinks)))
	var u cpu.Usage
	u.BackLatch = make([]int, d.stages)
	if d.backLatchNewVal != nil {
		u.BackLatchNewVal = make([]int, d.stages)
	}
	for c := uint64(0); c < d.cycles; c++ {
		events := d.events[d.evOff[c]:d.evOff[c+1]]
		for _, s := range sinks {
			if s.Issue == nil {
				continue
			}
			for i := range events {
				s.Issue.OnIssue(events[i])
			}
		}
		d.fillUsage(&u, c)
		for _, s := range sinks {
			if s.Cycle != nil {
				s.Cycle.OnCycle(&u)
			}
		}
	}
	return d.cycles
}
