package core

import (
	"io"
	"reflect"
	"sort"
	"testing"

	"dcg/internal/cpu"
	"dcg/internal/usagetrace"
)

// maxFuzzCycles bounds the traces FuzzPackedMatchesScalar crafts.
const maxFuzzCycles = 2048

// fuzzTiming maps fuzz input to a crafted trace of at most maxFuzzCycles
// cycles. Each step reads an op byte. An op whose low two bits are zero
// repeats the previous cycle's usage 1 + op>>2 times with no events, so
// the stream carries repeat records; any other op writes a cycle from the
// next 15 bytes (ten counts and masks, then one count per back-end latch
// stage), followed by (op>>2)&3 issue events of 10 bytes each. Counts
// range past every pool's capacity on the default machine, unit indices
// past every pool, and event leads from zero to past
// usagetrace.SchedHorizon, so schedules wrap the ring. An input that runs
// out reads zeros.
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
	prev := cpu.Usage{BackLatch: make([]int, stages)}
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
			BackLatch: make([]int, stages),
		}
		for s := range u.BackLatch {
			u.BackLatch[s] = next() % 10
		}
		for n := (op >> 2) & 3; n > 0; n-- {
			flags := next()
			ev := cpu.IssueEvent{
				FUType: cpu.FUType(next() % int(cpu.NumFUTypes)), FUIdx: next() - 1,
				IsLoad: flags&1 != 0, IsStore: flags&2 != 0, WritesReg: flags&4 != 0,
				FULat: fuzzLatency(next()),
			}
			ev.FUStart = uint64(c + wide())
			ev.DPortCycle = uint64(c + wide())
			ev.ResultBusCycle = uint64(c + wide())
			events[c] = append(events[c], ev)
		}
		usages = append(usages, u)
		prev = u
	}
	return craftTiming(t, usages, events)
}

// fuzzLatency maps an input byte to a unit latency: 1–32 cycles, or for
// the top 16 values a multiple of a quarter ring, up to four ring
// revolutions. The scalar engine marks every cycle of a latency, so
// longer ones would only slow the fuzzer down.
func fuzzLatency(b int) int {
	if b < 240 {
		return 1 + b%32
	}
	return (b - 239) * usagetrace.SchedHorizon / 4
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
			lat := byte(max(ev.FULat, 1) - 1)
			if ev.FULat > 32 {
				lat = byte(min(239+(ev.FULat+usagetrace.SchedHorizon/4-1)/(usagetrace.SchedHorizon/4), 255))
			}
			out = append(out, flags, byte(ev.FUType), byte(ev.FUIdx+1), lat)
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
// engines: on a crafted trace, the router (which sends every scheme here
// to the packed kernel) and the scalar fused engine must agree on none,
// dcg, oracle, lector and every DCG ablation subset — the same error, or
// Results equal in every field. The corpus is seeded with the shapes of
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
	kinds := []SchemeKind{SchemeNone, SchemeDCG, SchemeOracle, SchemeLector}
	f.Fuzz(func(t *testing.T, data []byte) {
		tm := fuzzTiming(t, data)
		fallback0 := PackedReplayFallbacks()
		routed, routedErr := sim.EvaluateTimingSchemes(tm, append(schemesOf(t, sim, kinds...), allDCGSubsets()...))
		scalar, scalarErr := sim.EvaluateScalar(tm, append(schemesOf(t, sim, kinds...), allDCGSubsets()...))
		if (routedErr == nil) != (scalarErr == nil) || routedErr != nil && routedErr.Error() != scalarErr.Error() {
			t.Fatalf("router err = %v, scalar err = %v", routedErr, scalarErr)
		}
		if n := PackedReplayFallbacks() - fallback0; n != 0 {
			t.Fatalf("%d schemes fell back to the scalar engine; the comparison would not reach the kernel", n)
		}
		for i := range routed {
			if !reflect.DeepEqual(routed[i], scalar[i]) {
				t.Errorf("%s: results differ:\npacked %+v\nscalar %+v", scalar[i].Scheme, routed[i], scalar[i])
			}
		}
	})
}

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
