package core

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"sort"
	"testing"

	"dcg/internal/cpu"
	"dcg/internal/gating"
	"dcg/internal/usagetrace"
)

// maxFuzzCycles bounds the traces FuzzPackedMatchesScalar crafts.
const maxFuzzCycles = 2048

// fuzzTiming maps fuzz input to a crafted trace of at most maxFuzzCycles
// cycles, with the latchvalue channel. Each step reads an op byte. An op
// whose low two bits are zero repeats the previous cycle's usage 1 + op>>2
// times with no events, so the stream carries repeat records; any other
// op writes a cycle from the next 20 bytes (ten counts and masks, one
// occupancy count per back-end latch stage, then one value-change count
// per stage), followed by (op>>2)&3 issue events of 11 bytes each. Counts
// range past every pool's capacity on the default machine, value-change
// counts (0–15) above and below their stage's occupancy and past the
// issue width, unit indices past every pool, and latencies (0–65535) and
// event leads from zero to past usagetrace.SchedHorizon, so schedules
// wrap the ring. An input that runs out reads zeros.
func fuzzTiming(t testing.TB, data []byte) *Timing {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	wide := func() int { return next()<<8 | next() }
	stages := DefaultMachine().BackEndLatchStages()
	prev := cpu.Usage{BackLatch: make([]int, stages), BackLatchNewVal: make([]int, stages)}
	var usages []cpu.Usage
	events := map[int][]cpu.IssueEvent{}
	for len(data) > 0 && len(usages) < maxFuzzCycles {
		op := next()
		if op&3 == 0 {
			for n := 1 + op>>2; n > 0 && len(usages) < maxFuzzCycles; n-- {
				usages = append(usages, prev)
			}
			continue
		}
		c := len(usages)
		u := cpu.Usage{
			IssueCount: next() % 10, CommitCount: next() % 10, FetchCount: next() % 10,
			IntALUBusy: uint32(next()), IntMultBusy: uint32(next()),
			FPALUBusy: uint32(next()), FPMultBusy: uint32(next()),
			DPortUsed: next() % 8, ResultBus: next() % 32, WindowOccupancy: next() % 160,
			BackLatch: make([]int, stages), BackLatchNewVal: make([]int, stages),
		}
		for s := range u.BackLatch {
			u.BackLatch[s] = next() % 10
		}
		for s := range u.BackLatchNewVal {
			u.BackLatchNewVal[s] = next() % 16
		}
		for n := (op >> 2) & 3; n > 0; n-- {
			flags := next()
			ev := cpu.IssueEvent{
				FUType: cpu.FUType(next() % int(cpu.NumFUTypes)), FUIdx: next() - 1,
				IsLoad: flags&1 != 0, IsStore: flags&2 != 0, WritesReg: flags&4 != 0,
				FULat: wide(),
			}
			ev.FUStart = uint64(c + wide())
			ev.DPortCycle = uint64(c + wide())
			ev.ResultBusCycle = uint64(c + wide())
			events[c] = append(events[c], ev)
		}
		usages = append(usages, u)
		prev = u
	}
	return craftTiming(t, usages, events, usagetrace.ChannelLatchValue)
}

// fuzzInput encodes a crafted trace's first maxFuzzCycles cycles as
// input fuzzTiming maps back to the same trace, for fields inside
// fuzzTiming's ranges: runs of event-free cycles that repeat their
// predecessor become repeat ops, the rest cycle ops with their events.
func fuzzInput(t testing.TB, tm *Timing) []byte {
	rd, err := tm.Trace.Reader()
	if err != nil {
		t.Fatal(err)
	}
	var out, prev []byte
	run := 0
	flush := func() {
		if run > 0 {
			out = append(out, byte((run-1)<<2))
			run = 0
		}
	}
	lead := func(at, from uint64) (byte, byte) {
		d := uint64(0)
		if at > from {
			d = min(at-from, 0xffff)
		}
		return byte(d >> 8), byte(d)
	}
	for c := 0; c < maxFuzzCycles; c++ {
		events, u, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		cur := []byte{
			byte(u.IssueCount), byte(u.CommitCount), byte(u.FetchCount),
			byte(u.IntALUBusy), byte(u.IntMultBusy), byte(u.FPALUBusy), byte(u.FPMultBusy),
			byte(u.DPortUsed), byte(u.ResultBus), byte(u.WindowOccupancy),
		}
		for _, v := range u.BackLatch {
			cur = append(cur, byte(v))
		}
		vals := make([]byte, len(u.BackLatch)) // zeros without the latchvalue channel
		for s, v := range u.BackLatchNewVal {
			vals[s] = byte(v)
		}
		cur = append(cur, vals...)
		if len(events) == 0 && c > 0 && string(cur) == string(prev) {
			if run++; run == 64 {
				flush()
			}
			continue
		}
		flush()
		events = events[:min(len(events), 3)]
		out = append(out, byte(1|len(events)<<2))
		out = append(out, cur...)
		for _, ev := range events {
			var flags byte
			if ev.IsLoad {
				flags |= 1
			}
			if ev.IsStore {
				flags |= 2
			}
			if ev.WritesReg {
				flags |= 4
			}
			lat := min(ev.FULat, 0xffff)
			out = append(out, flags, byte(ev.FUType), byte(ev.FUIdx+1), byte(lat>>8), byte(lat))
			for _, at := range []uint64{ev.FUStart, ev.DPortCycle, ev.ResultBusCycle} {
				hi, lo := lead(at, ev.Cycle)
				out = append(out, hi, lo)
			}
		}
		prev = cur
	}
	flush()
	return out
}

// FuzzPackedMatchesScalar is the differential test of the two replay
// engines: on a crafted trace, the router (the packed kernel) and the
// scalar fused engine must agree on every registered timing-neutral
// scheme and every DCG ablation subset — the same error, or Results equal
// in every field. One scheme whose accounting fails Validate fails a
// joint evaluation, so when the joint calls fail alike each scheme is
// evaluated alone on both engines and compared, and the others are
// still held to each other. The corpus is seeded with the shapes of
// TestPackedReplayAdversarialTraces and runTraces.
func FuzzPackedMatchesScalar(f *testing.F) {
	seeds := adversarialTraces(f)
	for name, tm := range runTraces(f) {
		seeds[name] = tm
	}
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(fuzzInput(f, seeds[name]))
	}

	sim := NewSimulator(DefaultMachine())
	kinds := []SchemeKind{SchemeNone, SchemeDCG, SchemeOracle, SchemeLector, SchemeDDCG, SchemeDCGDDCG}
	schemes := func(t *testing.T) []gating.Scheme { return append(schemesOf(t, sim, kinds...), allDCGSubsets()...) }
	scheme := func(t *testing.T, i int) []gating.Scheme {
		if i < len(kinds) {
			return schemesOf(t, sim, kinds[i])
		}
		return []gating.Scheme{dcgSubset(i - len(kinds))}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tm := fuzzTiming(t, data)
		err := compareEngines(sim, tm, schemes(t), schemes(t))
		if err != errSameFailure {
			if err != nil {
				t.Fatal(err)
			}
			return
		}
		for i := range len(kinds) + 16 {
			if err := compareEngines(sim, tm, scheme(t, i), scheme(t, i)); err != nil && err != errSameFailure {
				t.Error(err)
			}
		}
	})
}

// compareEngines evaluates one scheme set on each engine (a fresh
// instance set each) and reports how they disagree: a mismatched error,
// or a Result that differs in any field. A set both engines refuse with
// the same error returns errSameFailure.
func compareEngines(sim *Simulator, tm *Timing, routedSet, scalarSet []gating.Scheme) error {
	routed, routedErr := sim.EvaluateTimingSchemes(tm, routedSet)
	scalar, scalarErr := sim.EvaluateScalar(tm, scalarSet)
	if (routedErr == nil) != (scalarErr == nil) || routedErr != nil && routedErr.Error() != scalarErr.Error() {
		return fmt.Errorf("router err = %v, scalar err = %v", routedErr, scalarErr)
	}
	if routedErr != nil {
		return errSameFailure
	}
	for i := range routed {
		if !reflect.DeepEqual(routed[i], scalar[i]) {
			return fmt.Errorf("%s: results differ:\npacked %+v\nscalar %+v", scalar[i].Scheme, routed[i], scalar[i])
		}
	}
	return nil
}

// errSameFailure reports a scheme set that both engines refused with the
// same error.
var errSameFailure = errors.New("both engines refused the set alike")

// TestFuzzInputRoundTrips: an encoded seed maps back to a trace that
// encodes the same, so the corpus starts from the shapes it names rather
// than from noise.
func TestFuzzInputRoundTrips(t *testing.T) {
	for name, tm := range adversarialTraces(t) {
		back := fuzzTiming(t, fuzzInput(t, tm))
		if back.Trace.Cycles() != tm.Trace.Cycles() {
			t.Fatalf("%s: %d cycles back from %d", name, back.Trace.Cycles(), tm.Trace.Cycles())
		}
		want, got := fuzzInput(t, tm), fuzzInput(t, back)
		if string(want) != string(got) {
			t.Errorf("%s: re-encoding the decoded input changed it", name)
		}
	}
}
