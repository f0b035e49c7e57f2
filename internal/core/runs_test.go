package core

import (
	"io"
	"reflect"
	"testing"
	"time"

	"dcg/internal/cpu"
	"dcg/internal/gating"
	"dcg/internal/usagetrace"
)

// runTraces crafts latchvalue-carrying traces whose repeat records are not
// quiet: runs with busy units, D-ports, result buses, commits and latch
// occupancy that no schedule covers; runs passing through DCG schedule
// slots that events filled, some of them ring-wrapped; and runs that
// start while the oracle's fetch history still holds other fetch counts.
func runTraces(t testing.TB) map[string]*Timing {
	t.Helper()
	varying := func(c int) cpu.Usage {
		return cpu.Usage{
			IssueCount: c % 3, IntALUBusy: uint32(c) & 3, FetchCount: c % 4,
			WindowOccupancy: 10 + c%50,
			BackLatch:       []int{c % 2, c % 3, 0, 1, c % 2},
			BackLatchNewVal: []int{c % 2, 0, 0, 1, 0},
		}
	}
	repeat := func(us []cpu.Usage, u cpu.Usage, n int) []cpu.Usage {
		for ; n > 0; n-- {
			us = append(us, u)
		}
		return us
	}

	var busy []cpu.Usage
	for c := 0; c < 10; c++ {
		busy = append(busy, varying(c))
	}
	busy = repeat(busy, cpu.Usage{
		IntALUBusy: 0b101, FPMultBusy: 1, DPortUsed: 1, ResultBus: 2, CommitCount: 3,
		FetchCount: 2, WindowOccupancy: 30,
		BackLatch: []int{0, 1, 2, 1, 0}, BackLatchNewVal: []int{0, 1, 1, 0, 0},
	}, 400)
	for c := 0; c < 3; c++ {
		busy = append(busy, varying(c))
	}
	busy = repeat(busy, cpu.Usage{
		IssueCount: 2, IntMultBusy: 1, WindowOccupancy: 77,
		BackLatch: []int{2, 2, 2, 2, 2}, BackLatchNewVal: []int{1, 2, 0, 1, 2},
	}, 2000)
	busy = repeat(busy, cpu.Usage{WindowOccupancy: 5}, 100)

	// Events fill schedule slots a 9997-cycle run then passes through: a
	// unit busy for 30 cycles, a D-port and a result bus, a unit start and
	// a store a whole ring revolution (or two) ahead, which alias to early
	// slots, and a latency past the ring's horizon.
	sched := []cpu.Usage{varying(0), varying(1), varying(2)}
	sched = repeat(sched, cpu.Usage{IntALUBusy: 0b10, WindowOccupancy: 12}, 9997)
	for c := 3; c < 8; c++ {
		sched = append(sched, varying(c))
	}
	events := map[int][]cpu.IssueEvent{
		0: {{FUIdx: 1, FUType: cpu.FUIntALU, FUStart: 40, FULat: 30,
			IsLoad: true, DPortCycle: 100, WritesReg: true, ResultBusCycle: 150}},
		1: {{FUIdx: 0, FUType: cpu.FUFPALU, FUStart: 1 + usagetrace.SchedHorizon + 20, FULat: 10},
			{FUIdx: -1, IsStore: true, DPortCycle: 1 + 2*usagetrace.SchedHorizon + 300}},
		2: {{FUIdx: 3, FUType: cpu.FUFPMult, FUStart: 9000, FULat: 3 * usagetrace.SchedHorizon,
			WritesReg: true, ResultBusCycle: 2 + usagetrace.SchedHorizon + 7}},
	}

	// Fetch counts step down into each run, so the oracle's fetch history
	// has not drained when the run starts.
	var fetch []cpu.Usage
	for r := 0; r < 10; r++ {
		for _, f := range []int{4, 3, 2} {
			fetch = append(fetch, cpu.Usage{FetchCount: f, WindowOccupancy: 20 + r})
		}
		fetch = repeat(fetch, cpu.Usage{FetchCount: r % 3, WindowOccupancy: 20 + r, CommitCount: r % 2}, 50+13*r)
	}

	ch := usagetrace.ChannelLatchValue
	traces := map[string]*Timing{
		"busy-runs":          craftTiming(t, busy, nil, ch),
		"scheduled-runs":     craftTiming(t, sched, events, ch),
		"fetch-history-runs": craftTiming(t, fetch, nil, ch),
	}
	for name, tm := range traces {
		if tm.Trace.SizeBytes() > int(tm.Trace.Cycles()) {
			t.Fatalf("%s: %d bytes for %d cycles, so few are in repeat records", name, tm.Trace.SizeBytes(), tm.Trace.Cycles())
		}
	}
	return traces
}

// stepped evaluates scheme on tm as ReplayAll would were every run
// expanded to single cycles: the sinks get the Reader's cycle-by-cycle
// view, one OnIssue per event and one OnCycle per cycle.
func stepped(t *testing.T, sim *Simulator, tm *Timing, scheme gating.Scheme) *Result {
	t.Helper()
	l, err := sim.newLane(tm.Machine, scheme)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := tm.Trace.Reader()
	if err != nil {
		t.Fatal(err)
	}
	for {
		events, u, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			scheme.OnIssue(ev)
		}
		l.acct.OnCycle(u)
	}
	res, err := l.result(tm)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestNonQuietRunsMatchPerCycle: ReplayAll hands repeat records to the
// accountant and the schemes as runs. On runTraces, where those runs are
// not quiet, every timing-neutral scheme, bare and wrapped in the
// gating.Observed a telemetry run adds (which takes no runs, so it steps
// every cycle), must give the Result it gives cycle by cycle, every field
// bit for bit.
func TestNonQuietRunsMatchPerCycle(t *testing.T) {
	for name, tm := range runTraces(t) {
		sim := NewSimulator(tm.Machine)
		for _, telemetry := range []bool{false, true} {
			for _, kind := range AllSchemes() {
				if !TimingNeutral(kind) {
					continue
				}
				label := name + "/" + string(kind)
				if telemetry {
					label += "/telemetry"
				}
				fresh := func() gating.Scheme {
					scheme, err := sim.makeScheme(kind)
					if err != nil {
						t.Fatal(err)
					}
					if telemetry {
						scheme = gating.Observed{Scheme: scheme, OnGates: stepEveryCycle{}.OnGates}
					}
					return scheme
				}
				runs, err := sim.EvaluateScalar(tm, []gating.Scheme{fresh()})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				steps := stepped(t, sim, tm, fresh())
				assertBitIdentical(t, label, steps, runs[0])
				if !reflect.DeepEqual(runs[0], steps) {
					t.Errorf("%s: results differ:\nruns  %+v\nsteps %+v", label, runs[0], steps)
				}
			}
		}
	}
}

// TestScheduledRunsCostNoMoreThanSteps: in a crafted trace whose long
// runs each reach a DCG schedule slot an event filled 8000 cycles ahead,
// the accountant steps through every run. ReplayAll must still cost about
// what a cycle-by-cycle replay does, not a scan of the run's slots per
// cycle it steps.
func TestScheduledRunsCostNoMoreThanSteps(t *testing.T) {
	var usages []cpu.Usage
	for c := 0; c < 10_000; c++ { // bytes that let the runs be long
		usages = append(usages, cpu.Usage{IssueCount: c % 5, WindowOccupancy: c % 7})
	}
	events := map[int][]cpu.IssueEvent{}
	for r := 0; r < 20; r++ {
		c := len(usages)
		events[c] = []cpu.IssueEvent{{FUIdx: -1, IsStore: true, DPortCycle: uint64(c + 8000)}}
		usages = append(usages, cpu.Usage{IssueCount: 1, WindowOccupancy: 3})
		for i := 0; i < 8005; i++ {
			usages = append(usages, cpu.Usage{WindowOccupancy: 3})
		}
	}
	tm := craftTiming(t, usages, events)
	rd, err := tm.Trace.Reader()
	if err != nil {
		t.Fatal(err)
	}
	long := 0
	for {
		_, _, n, err := rd.NextRun()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if n >= 8000 {
			long++
		}
	}
	if long != 20 {
		t.Fatalf("the trace holds %d runs of 8000 cycles or more, want 20", long)
	}
	sim := NewSimulator(tm.Machine)
	best := func(eval func(gating.Scheme)) time.Duration {
		d := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			scheme, err := sim.makeScheme(SchemeDCG)
			if err != nil {
				t.Fatal(err)
			}
			t0 := time.Now()
			eval(scheme)
			d = min(d, time.Since(t0))
		}
		return d
	}
	runs := best(func(scheme gating.Scheme) {
		if _, err := sim.EvaluateScalar(tm, []gating.Scheme{scheme}); err != nil {
			t.Fatal(err)
		}
	})
	steps := best(func(scheme gating.Scheme) { stepped(t, sim, tm, scheme) })
	if runs > 10*steps {
		t.Errorf("replaying the runs took %v, stepping the cycles %v", runs, steps)
	}
}
