package usagetrace

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dcg/internal/cpu"
)

// synthCapture generates a deterministic pseudo-random capture and
// returns both the recorded trace and the expected cycle contents.
func synthCapture(t testing.TB, cycles int, stages int) (*Trace, [][]cpu.IssueEvent, []cpu.Usage) {
	t.Helper()
	rec, err := NewRecorder("synevery", stages)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	events := make([][]cpu.IssueEvent, cycles)
	usages := make([]cpu.Usage, cycles)
	occ := 0
	for c := 0; c < cycles; c++ {
		nev := rng.Intn(4)
		for i := 0; i < nev; i++ {
			ev := cpu.IssueEvent{Cycle: uint64(c), FUIdx: -1}
			switch rng.Intn(3) {
			case 0:
				ev.FUType = cpu.FUType(rng.Intn(int(cpu.NumFUTypes)))
				ev.FUIdx = rng.Intn(8)
				ev.FUStart = uint64(c) + 2
				ev.FULat = 1 + rng.Intn(20)
				ev.WritesReg = true
				ev.ResultBusCycle = ev.FUStart + uint64(ev.FULat)
			case 1:
				ev.IsLoad = true
				ev.DPortCycle = uint64(c) + 3
				ev.WritesReg = true
				ev.ResultBusCycle = ev.DPortCycle + uint64(1+rng.Intn(100))
			default:
				ev.IsStore = true
				ev.DPortCycle = uint64(c) + 4
			}
			events[c] = append(events[c], ev)
			rec.OnIssue(ev)
		}
		occ += rng.Intn(9) - 4
		if occ < 0 {
			occ = 0
		}
		u := cpu.Usage{
			Cycle:           uint64(c),
			IssueCount:      rng.Intn(9),
			FPIssueCount:    rng.Intn(4),
			MemIssueCount:   rng.Intn(4),
			IntALUBusy:      uint32(rng.Intn(256)),
			IntMultBusy:     uint32(rng.Intn(4)),
			FPALUBusy:       uint32(rng.Intn(16)),
			FPMultBusy:      uint32(rng.Intn(2)),
			DPortUsed:       rng.Intn(5),
			ResultBus:       rng.Intn(9),
			CommitCount:     rng.Intn(9),
			FetchCount:      rng.Intn(9),
			WindowOccupancy: occ,
			BackLatch:       make([]int, stages),
		}
		for s := range u.BackLatch {
			u.BackLatch[s] = rng.Intn(9)
		}
		usages[c] = u
		rec.OnCycle(&u)
	}
	tr := mustTrace(t, rec)
	assertViewMatchesDecode(t, tr)
	return tr, events, usages
}

func TestRoundTrip(t *testing.T) {
	const cycles, stages = 500, 5
	tr, events, usages := synthCapture(t, cycles, stages)
	if tr.Cycles() != cycles {
		t.Fatalf("trace has %d cycles, want %d", tr.Cycles(), cycles)
	}
	if tr.Name() != "synevery" {
		t.Fatalf("trace name %q, want synevery", tr.Name())
	}
	rd, err := tr.Reader()
	if err != nil {
		t.Fatal(err)
	}
	if rd.BackLatchStages() != stages {
		t.Fatalf("reader reports %d stages, want %d", rd.BackLatchStages(), stages)
	}
	for c := 0; c < cycles; c++ {
		evs, u, err := rd.Next()
		if err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		if len(evs) != len(events[c]) {
			t.Fatalf("cycle %d: %d events, want %d", c, len(evs), len(events[c]))
		}
		for i, ev := range evs {
			if ev != events[c][i] {
				t.Fatalf("cycle %d event %d: got %+v want %+v", c, i, ev, events[c][i])
			}
		}
		want := usages[c]
		if u.Cycle != want.Cycle || u.IssueCount != want.IssueCount ||
			u.FPIssueCount != want.FPIssueCount || u.MemIssueCount != want.MemIssueCount ||
			u.IntALUBusy != want.IntALUBusy || u.IntMultBusy != want.IntMultBusy ||
			u.FPALUBusy != want.FPALUBusy || u.FPMultBusy != want.FPMultBusy ||
			u.DPortUsed != want.DPortUsed || u.ResultBus != want.ResultBus ||
			u.CommitCount != want.CommitCount || u.FetchCount != want.FetchCount ||
			u.WindowOccupancy != want.WindowOccupancy {
			t.Fatalf("cycle %d usage: got %+v want %+v", c, *u, want)
		}
		for s := range want.BackLatch {
			if u.BackLatch[s] != want.BackLatch[s] {
				t.Fatalf("cycle %d latch stage %d: got %d want %d", c, s, u.BackLatch[s], want.BackLatch[s])
			}
		}
	}
	if _, _, err := rd.Next(); err != io.EOF {
		t.Fatalf("after last cycle: err = %v, want io.EOF", err)
	}
}

func TestWriteToReadTraceRoundTrip(t *testing.T) {
	tr, _, _ := synthCapture(t, 200, 5)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Cycles() != tr.Cycles() || back.BackLatchStages() != tr.BackLatchStages() || back.Name() != tr.Name() {
		t.Fatalf("reloaded trace metadata %q/%d/%d differs from original %q/%d/%d",
			back.Name(), back.Cycles(), back.BackLatchStages(),
			tr.Name(), tr.Cycles(), tr.BackLatchStages())
	}
}

func TestVersionMismatchFailsLoudly(t *testing.T) {
	tr, _, _ := synthCapture(t, 10, 5)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(traceMagic)]++ // bump the version byte
	_, err := ReadTrace(bytes.NewReader(data))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version-bumped trace: err = %v, want unsupported-version error", err)
	}
}

func TestBadMagicFailsLoudly(t *testing.T) {
	_, err := ReadTrace(strings.NewReader("NOPEnope not a trace"))
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: err = %v, want bad-magic error", err)
	}
}

func TestTruncationFailsLoudly(t *testing.T) {
	tr, _, _ := synthCapture(t, 50, 5)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cut at several points: mid-records and just before the end marker.
	for _, cut := range []int{len(full) / 3, len(full) / 2, len(full) - 2} {
		_, err := ReadTrace(bytes.NewReader(full[:cut]))
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("cut at %d/%d: err = %v, want truncation error", cut, len(full), err)
		}
	}
}

func TestTrailingDataFailsLoudly(t *testing.T) {
	tr, _, _ := synthCapture(t, 10, 5)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte(0xff)
	_, err := ReadTrace(&buf)
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing byte: err = %v, want trailing-data error", err)
	}
}

func TestReplayDeliversEventsBeforeUsage(t *testing.T) {
	tr, events, _ := synthCapture(t, 100, 5)
	rd, err := tr.Reader()
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	lis := listenerFunc(func(ev cpu.IssueEvent) {
		order = append(order, "ev")
		_ = ev
	})
	obs := observerFunc(func(u *cpu.Usage) { order = append(order, "cycle") })
	cycles, err := ReplayAll(rd, Sink{Issue: lis, Cycle: obs})
	if err != nil {
		t.Fatal(err)
	}
	if cycles != 100 {
		t.Fatalf("replayed %d cycles, want 100", cycles)
	}
	// Reconstruct the expected interleaving: each cycle's events strictly
	// before its usage callback.
	var want []string
	for c := range events {
		for range events[c] {
			want = append(want, "ev")
		}
		want = append(want, "cycle")
	}
	if len(order) != len(want) {
		t.Fatalf("callback count %d, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("callback %d is %q, want %q", i, order[i], want[i])
		}
	}
}

type listenerFunc func(cpu.IssueEvent)

func (f listenerFunc) OnIssue(ev cpu.IssueEvent) { f(ev) }

type observerFunc func(*cpu.Usage)

func (f observerFunc) OnCycle(u *cpu.Usage) { f(u) }

func TestWriterRejectsNonContiguousCycles(t *testing.T) {
	rec, err := NewRecorder("x", 2)
	if err != nil {
		t.Fatal(err)
	}
	u := cpu.Usage{Cycle: 5, BackLatch: make([]int, 2)}
	rec.OnCycle(&u)
	if _, err := rec.Trace(); err == nil {
		t.Fatal("non-contiguous capture closed cleanly, want error")
	}
}

func TestWriterRejectsStageMismatch(t *testing.T) {
	rec, err := NewRecorder("x", 3)
	if err != nil {
		t.Fatal(err)
	}
	u := cpu.Usage{BackLatch: make([]int, 5)}
	rec.OnCycle(&u)
	if _, err := rec.Trace(); err == nil {
		t.Fatal("stage-mismatched capture closed cleanly, want error")
	}
}

// TestRecorderRefusesWhatTheReaderRefuses: a value the Reader refuses as
// corruption fails the capture instead, so the view the Recorder builds
// and the one the decode builds agree on every stream the Recorder
// accepts.
func TestRecorderRefusesWhatTheReaderRefuses(t *testing.T) {
	for name, c := range map[string]struct {
		occ int
		ev  cpu.IssueEvent
	}{
		"occupancy below zero":     {occ: -1},
		"occupancy past 16 bits":   {occ: 1 << 16},
		"FU pool past the last":    {ev: cpu.IssueEvent{FUIdx: 0, FUType: cpu.NumFUTypes, FULat: 1}},
		"negative FU latency":      {ev: cpu.IssueEvent{FUIdx: 0, FULat: -1}},
		"FU latency past int32":    {ev: cpu.IssueEvent{FUIdx: 0, FULat: math.MaxInt32 + 1}},
		"FU unit index past int32": {ev: cpu.IssueEvent{FUIdx: math.MaxInt32 + 1, FULat: 1}},
	} {
		rec, err := NewRecorder("refuse", 1)
		if err != nil {
			t.Fatal(err)
		}
		if c.ev != (cpu.IssueEvent{}) {
			rec.OnIssue(c.ev)
		}
		rec.OnCycle(&cpu.Usage{WindowOccupancy: c.occ, BackLatch: []int{0}})
		if _, err := rec.Trace(); err == nil {
			t.Errorf("%s: the capture closed cleanly, want an error", name)
		}
	}
}

// TestWriterQuietRunMatchesPerCycle: OnQuiet writes the bytes n OnCycle
// calls would, and builds the same packed view, including a run whose
// first record carries buffered events and an occupancy step, a one-cycle
// run, and runs longer than one chunk of repeated records.
func TestWriterQuietRunMatchesPerCycle(t *testing.T) {
	const stages = 5
	for _, n := range []uint64{1, 2, 37, 1000, 5000} {
		rb, err := NewRecorder("quiet", stages, ChannelLatchValue)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := NewRecorder("quiet", stages, ChannelLatchValue)
		if err != nil {
			t.Fatal(err)
		}
		u := cpu.Usage{
			IssueCount: 2, IntALUBusy: 3, WindowOccupancy: 40,
			BackLatch:       []int{2, 1, 0, 0, 1},
			BackLatchNewVal: []int{1, 1, 0, 0, 0},
		}
		ev := cpu.IssueEvent{Cycle: 0, FUIdx: 1, FUStart: 2, FULat: 3, WritesReg: true, ResultBusCycle: 6}
		for _, r := range []*Recorder{rb, rs} {
			r.OnIssue(ev)
			r.OnCycle(&u)
		}

		// The run's first record carries a late event and a new occupancy.
		quiet := cpu.Usage{
			Cycle: 1, WindowOccupancy: 37,
			BackLatch:       make([]int, stages),
			BackLatchNewVal: make([]int, stages),
		}
		late := cpu.IssueEvent{Cycle: 1, FUIdx: -1, IsStore: true, DPortCycle: 5}
		rb.OnIssue(late)
		rs.OnIssue(late)
		rb.OnQuiet(&quiet, n)
		if quiet.Cycle != 1 {
			t.Fatalf("n=%d: OnQuiet left the usage at cycle %d, want 1", n, quiet.Cycle)
		}
		for i := uint64(0); i < n; i++ {
			quiet.Cycle = 1 + i
			rs.OnCycle(&quiet)
		}

		u.Cycle = 1 + n
		rb.OnCycle(&u)
		rs.OnCycle(&u)
		bulk, step := mustTrace(t, rb), mustTrace(t, rs)
		if bulk.Cycles() != n+2 {
			t.Errorf("n=%d: bulk recorder counted %d cycles, want %d", n, bulk.Cycles(), n+2)
		}
		if !bytes.Equal(bulk.data, step.data) {
			t.Errorf("n=%d: OnQuiet stream (%d bytes) differs from per-cycle stream (%d bytes)",
				n, bulk.SizeBytes(), step.SizeBytes())
		}
		assertViewMatchesDecode(t, bulk)
		assertViewMatchesDecode(t, step)
	}
}

// mustTrace ends a recording.
func mustTrace(t testing.TB, rec *Recorder) *Trace {
	t.Helper()
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// assertViewMatchesDecode checks that the packed view the Recorder built
// while it captured tr equals the one ReadTrace builds from tr's bytes,
// and that taking it is a reuse, not a pass over the bytes. A recorded
// view that met a cycle over its D-ports holds the over-capacity D-port
// plane, which a decode builds from the bytes on demand: the two planes
// must be equal, and the views in every other field.
func assertViewMatchesDecode(t testing.TB, tr *Trace) {
	t.Helper()
	decodes := Decodes()
	live, err := tr.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if Decodes() != decodes {
		t.Fatal("a recorded trace's first Decode parsed its bytes")
	}
	back, err := ReadTrace(bytes.NewReader(tr.data))
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := back.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if live.overDPort != nil {
		want, err := decoded.OverFullDPorts(live.ports)
		if err != nil || !slices.Equal(live.overDPort, want) {
			t.Fatalf("%s: the recorded over-capacity D-port plane differs from the decoded one (err %v)", tr.Name(), err)
		}
		v := *live
		v.ports, v.overDPort = 0, nil
		live = &v
	}
	if !reflect.DeepEqual(live, decoded) {
		t.Fatalf("%s: the recorded view differs from the decoded one", tr.Name())
	}
}

// runCapture records a trace whose v3 stream holds many repeat records:
// short bursts of cycles with issue events alternate with runs of cycles
// that repeat the one before, half of them quiet and half with a busy
// unit, a result bus, commits and latch occupancy, delivered through
// OnQuiet or cycle by cycle. It returns the trace and the expected cycle
// contents, as synthCapture does.
func runCapture(tb testing.TB, bursts, stages int, extra ...string) (*Trace, [][]cpu.IssueEvent, []cpu.Usage) {
	tb.Helper()
	rec, err := NewRecorder("runs", stages, extra...)
	if err != nil {
		tb.Fatal(err)
	}
	latchValue := len(extra) > 0
	rng := rand.New(rand.NewSource(7))
	var events [][]cpu.IssueEvent
	var usages []cpu.Usage
	newUsage := func() cpu.Usage {
		u := cpu.Usage{Cycle: uint64(len(usages)), BackLatch: make([]int, stages)}
		if latchValue {
			u.BackLatchNewVal = make([]int, stages)
		}
		return u
	}
	for b := 0; b < bursts; b++ {
		for i := 1 + rng.Intn(3); i > 0; i-- {
			c := uint64(len(usages))
			var evs []cpu.IssueEvent
			for j := 1 + rng.Intn(3); j > 0; j-- {
				ev := cpu.IssueEvent{Cycle: c, FUType: cpu.FUType(rng.Intn(int(cpu.NumFUTypes))),
					FUIdx: rng.Intn(4), FUStart: c + 2, FULat: 1 + rng.Intn(12), WritesReg: true}
				ev.ResultBusCycle = ev.FUStart + uint64(ev.FULat)
				evs = append(evs, ev)
				rec.OnIssue(ev)
			}
			u := newUsage()
			u.IssueCount, u.IntALUBusy, u.FetchCount = len(evs), uint32(rng.Intn(16)), rng.Intn(5)
			u.WindowOccupancy = rng.Intn(64)
			for s := range u.BackLatch {
				u.BackLatch[s] = rng.Intn(3)
				if latchValue {
					u.BackLatchNewVal[s] = rng.Intn(u.BackLatch[s] + 1)
				}
			}
			events = append(events, evs)
			usages = append(usages, u)
			rec.OnCycle(&u)
		}
		n := 1 + rng.Intn(300)
		u := newUsage()
		u.WindowOccupancy, u.FetchCount = rng.Intn(64), rng.Intn(2)
		if rng.Intn(2) == 0 {
			u.FPALUBusy, u.ResultBus, u.CommitCount = 1<<rng.Intn(4), 1, 1
			u.BackLatch[stages-1] = 2
			if latchValue {
				u.BackLatchNewVal[stages-1] = 1
			}
		}
		first := u.Cycle
		for i := 0; i < n; i++ {
			events = append(events, nil)
			usages = append(usages, u)
			usages[len(usages)-1].Cycle = first + uint64(i)
		}
		if rng.Intn(2) == 0 {
			rec.OnQuiet(&u, uint64(n))
		} else {
			for i := 0; i < n; i++ {
				u.Cycle = first + uint64(i)
				rec.OnCycle(&u)
			}
		}
	}
	tr := mustTrace(tb, rec)
	assertViewMatchesDecode(tb, tr)
	return tr, events, usages
}

// sameUsage reports whether two usage vectors agree on every field.
func sameUsage(a, b *cpu.Usage) bool {
	return a.Cycle == b.Cycle && a.IssueCount == b.IssueCount && a.FPIssueCount == b.FPIssueCount &&
		a.MemIssueCount == b.MemIssueCount && a.IntALUBusy == b.IntALUBusy &&
		a.IntMultBusy == b.IntMultBusy && a.FPALUBusy == b.FPALUBusy && a.FPMultBusy == b.FPMultBusy &&
		a.DPortUsed == b.DPortUsed && a.ResultBus == b.ResultBus && a.CommitCount == b.CommitCount &&
		a.FetchCount == b.FetchCount && a.WindowOccupancy == b.WindowOccupancy &&
		slices.Equal(a.BackLatch, b.BackLatch) && slices.Equal(a.BackLatchNewVal, b.BackLatchNewVal)
}

// TestRepeatRecordsRoundTrip: a capture full of repeated cycles decodes
// to exactly the cycles recorded, cycle by cycle through Next and as runs
// through NextRun, and its packed view agrees with the stream.
func TestRepeatRecordsRoundTrip(t *testing.T) {
	for _, extra := range [][]string{nil, {ChannelLatchValue}} {
		tr, events, usages := runCapture(t, 60, 4, extra...)
		rd, err := tr.Reader()
		if err != nil {
			t.Fatal(err)
		}
		for c := range usages {
			evs, u, err := rd.Next()
			if err != nil {
				t.Fatalf("cycle %d: %v", c, err)
			}
			if !slices.Equal(evs, events[c]) || !sameUsage(u, &usages[c]) {
				t.Fatalf("cycle %d: got %+v %+v, want %+v %+v", c, evs, *u, events[c], usages[c])
			}
		}
		if _, _, err := rd.Next(); err != io.EOF {
			t.Fatalf("after the last cycle: err = %v, want io.EOF", err)
		}

		if rd, err = tr.Reader(); err != nil {
			t.Fatal(err)
		}
		var c, runs uint64
		for {
			evs, u, n, err := rd.NextRun()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("cycle %d: %v", c, err)
			}
			if n > 1 {
				runs++
				if len(evs) != 0 {
					t.Fatalf("run at cycle %d carries %d events", c, len(evs))
				}
			}
			for i := uint64(0); i < n; i++ {
				want := usages[c+i]
				want.Cycle = c
				if !sameUsage(u, &want) {
					t.Fatalf("run at cycle %d (n=%d), cycle %d: got %+v, want %+v", c, n, c+i, *u, usages[c+i])
				}
			}
			c += n
		}
		if c != uint64(len(usages)) || runs < 20 {
			t.Fatalf("NextRun covered %d cycles in %d runs, want %d cycles in at least 20", c, runs, len(usages))
		}

		back, err := ReadTrace(bytes.NewReader(encoded(t, tr)))
		if err != nil {
			t.Fatal(err)
		}
		p, err := back.Decode()
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstStream(t, back, p)
	}
}

// TestMillionCycleRunRoundTrips: a million identical cycles, recorded as
// one OnQuiet run and as a million OnCycle calls, give the same bytes,
// which stay within the bound on the cycles a stream may claim (the
// Recorder falls back to cycle records) and round-trip through ReadTrace
// to the view the Recorder built.
func TestMillionCycleRunRoundTrips(t *testing.T) {
	const n = 1_000_000
	rb, err := NewRecorder("million", 2, ChannelLatchValue)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewRecorder("million", 2, ChannelLatchValue)
	if err != nil {
		t.Fatal(err)
	}
	u := cpu.Usage{IntALUBusy: 1, WindowOccupancy: 9, BackLatch: []int{1, 0}, BackLatchNewVal: []int{1, 0}}
	rb.OnQuiet(&u, n)
	for c := uint64(0); c < n; c++ {
		u.Cycle = c
		rs.OnCycle(&u)
	}
	bulk, step := mustTrace(t, rb), mustTrace(t, rs)
	if !bytes.Equal(bulk.data, step.data) {
		t.Fatalf("OnQuiet stream (%d bytes) differs from the per-cycle stream (%d bytes)", bulk.SizeBytes(), step.SizeBytes())
	}
	if limit := maxCycles(uint64(bulk.SizeBytes()), recordBytes(2, true)); n > limit || n < limit/2 {
		t.Fatalf("%d cycles in %d bytes, want at most the bound's %d and near it", n, bulk.SizeBytes(), limit)
	}
	tr, err := ReadTrace(bytes.NewReader(bulk.data))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Cycles() != n {
		t.Fatalf("read back %d cycles, want %d", tr.Cycles(), n)
	}
	p, err := tr.Decode()
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstStream(t, tr, p)
	assertViewMatchesDecode(t, bulk)
}

// quietRecorder records the cycles it observes, and which of them came
// in runs of more than one.
type quietRecorder struct {
	cycles []cpu.Usage
	runs   int
}

func (q *quietRecorder) OnCycle(u *cpu.Usage) { q.cycles = append(q.cycles, cloneUsage(u)) }

func (q *quietRecorder) OnQuiet(u *cpu.Usage, n uint64) {
	if n > 1 {
		q.runs++
	}
	for i := uint64(0); i < n; i++ {
		q.cycles = append(q.cycles, cloneUsage(u))
		q.cycles[len(q.cycles)-1].Cycle += i
	}
}

// cloneUsage copies a usage vector out of a reader's reused buffers.
func cloneUsage(u *cpu.Usage) cpu.Usage {
	c := *u
	c.BackLatch = slices.Clone(u.BackLatch)
	c.BackLatchNewVal = slices.Clone(u.BackLatchNewVal)
	return c
}

// TestReplayHandsRunsToQuietObservers: ReplayAll gives a sink that takes
// runs each repeat record as one OnQuiet call, and a sink that does not
// the same cycles one OnCycle call at a time.
func TestReplayHandsRunsToQuietObservers(t *testing.T) {
	tr, _, usages := runCapture(t, 30, 3)
	rd, err := tr.Reader()
	if err != nil {
		t.Fatal(err)
	}
	quiet := &quietRecorder{}
	var stepped []cpu.Usage
	step := observerFunc(func(u *cpu.Usage) { stepped = append(stepped, cloneUsage(u)) })
	cycles, err := ReplayAll(rd, Sink{Cycle: quiet}, Sink{Cycle: step})
	if err != nil {
		t.Fatal(err)
	}
	if cycles != uint64(len(usages)) || quiet.runs == 0 {
		t.Fatalf("replayed %d cycles with %d runs, want %d cycles in runs", cycles, quiet.runs, len(usages))
	}
	for c := range usages {
		if !sameUsage(&quiet.cycles[c], &usages[c]) || !sameUsage(&stepped[c], &usages[c]) {
			t.Fatalf("cycle %d: runs %+v, steps %+v, want %+v", c, quiet.cycles[c], stepped[c], usages[c])
		}
	}
}

// TestWriterRepeatRule: a cycle extends a run only when it has no issue
// events and every recorded field equals the previous cycle's. A change
// in any one field, or an event, starts a cycle record; a latchvalue
// change counts only when the trace records that channel.
func TestWriterRepeatRule(t *testing.T) {
	base := func() cpu.Usage {
		return cpu.Usage{IssueCount: 1, FPIssueCount: 1, MemIssueCount: 1, IntALUBusy: 1,
			IntMultBusy: 1, FPALUBusy: 1, FPMultBusy: 1, DPortUsed: 1, ResultBus: 1,
			CommitCount: 1, FetchCount: 1, WindowOccupancy: 1,
			BackLatch: []int{1, 1}, BackLatchNewVal: []int{1, 1}}
	}
	changes := []func(u *cpu.Usage){
		func(u *cpu.Usage) { u.IssueCount++ },
		func(u *cpu.Usage) { u.FPIssueCount++ },
		func(u *cpu.Usage) { u.MemIssueCount++ },
		func(u *cpu.Usage) { u.IntALUBusy++ },
		func(u *cpu.Usage) { u.IntMultBusy++ },
		func(u *cpu.Usage) { u.FPALUBusy++ },
		func(u *cpu.Usage) { u.FPMultBusy++ },
		func(u *cpu.Usage) { u.DPortUsed++ },
		func(u *cpu.Usage) { u.ResultBus++ },
		func(u *cpu.Usage) { u.CommitCount++ },
		func(u *cpu.Usage) { u.FetchCount++ },
		func(u *cpu.Usage) { u.WindowOccupancy++ },
		func(u *cpu.Usage) { u.BackLatch[1]++ },
		func(u *cpu.Usage) { u.BackLatchNewVal[1]++ },
	}
	for _, extra := range [][]string{nil, {ChannelLatchValue}} {
		rec, err := NewRecorder("rule", 2, extra...)
		if err != nil {
			t.Fatal(err)
		}
		var c uint64
		cycle := func(u cpu.Usage) {
			u.Cycle = c
			rec.OnCycle(&u)
			c++
		}
		// Each change follows a repeat of the base and is repeated once
		// itself; an event on a cycle that repeats the base also breaks
		// the run.
		for _, change := range changes {
			u := base()
			cycle(u)
			cycle(u)
			change(&u)
			cycle(u)
			cycle(u)
		}
		rec.OnIssue(cpu.IssueEvent{Cycle: c, FUIdx: -1, IsStore: true, DPortCycle: c + 4})
		cycle(base())
		tr, err := rec.Trace()
		if err != nil {
			t.Fatal(err)
		}

		rd, err := tr.Reader()
		if err != nil {
			t.Fatal(err)
		}
		var runs []uint64
		for {
			_, _, n, err := rd.NextRun()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, n)
		}
		var want []uint64
		for i := range changes {
			if i == len(changes)-1 && len(extra) == 0 {
				want = append(want, 1, 3) // an unrecorded change repeats
			} else {
				want = append(want, 1, 1, 1, 1) // base, repeat, change, repeat
			}
		}
		want = append(want, 1) // the base again, with an event
		if !slices.Equal(runs, want) {
			t.Errorf("channels %v: records cover %v cycles, want %v", extra, runs, want)
		}
	}
}
