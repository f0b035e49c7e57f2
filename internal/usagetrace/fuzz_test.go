package usagetrace

import (
	"bytes"
	"compress/gzip"
	"io"
	"math/bits"
	"runtime"
	"testing"

	"dcg/internal/config"
	"dcg/internal/cpu"
)

// FuzzReadTrace drives the trust boundary every stored or shipped trace
// crosses: arbitrary bytes into ReadTrace, and into NewReader read cycle
// by cycle. Whatever the input, neither may panic or allocate beyond a
// fixed multiple of the bytes it parses, and both must accept the same
// streams with the same cycle count. A stream ReadTrace accepts must
// yield a packed view that agrees bit for bit with a Reader pass (Next)
// over the same bytes.
//
// Run it with: go test -run '^$' -fuzz FuzzReadTrace ./internal/usagetrace
func FuzzReadTrace(f *testing.F) {
	good := tinyCapture(f, 3)
	for _, tc := range corruptStreams() {
		f.Add(tc.mutate(append([]byte{}, good...)))
	}

	synth, _, _ := synthCapture(f, 300, 5)
	v2 := encoded(f, synth)
	for _, cut := range []int{len(v2) / 3, len(v2) / 2, len(v2) - 2} {
		f.Add(v2[:cut])
	}
	f.Add(v2)
	f.Add(rewriteV1(f, v2))
	f.Add(encoded(f, latchValueCapture(f, 150)))
	var gz bytes.Buffer
	if err := synth.EncodeGzip(&gz); err != nil {
		f.Fatal(err)
	}
	f.Add(gz.Bytes())
	for _, tc := range repeatCorruptions() {
		f.Add(tc.mutate(append([]byte{}, good...)))
	}
	runs, _, _ := runCapture(f, 30, 3, ChannelLatchValue)
	f.Add(encoded(f, runs))
	f.Add(gzipped(f, make([]byte, 4<<20))) // a bomb: 4 MiB of zeros in 4 KiB

	f.Fuzz(func(t *testing.T, data []byte) {
		parsed := len(data) + inflatedLen(data)
		// The fixed part covers the schedule-mirror rings, the per-stage
		// buffers a header may declare (up to config.MaxLatchStages) and the
		// reader's per-cycle event buffer (up to 2^16 events).
		limit := uint64(64*parsed + 16<<20)
		var tr *Trace
		var err error
		allocs := allocated(func() { tr, err = ReadTrace(bytes.NewReader(data)) })
		if allocs > limit {
			t.Fatalf("ReadTrace of %d bytes (%d parsed) allocated %d bytes, limit %d",
				len(data), parsed, allocs, limit)
		}
		var cycles uint64
		var rerr error
		allocs = allocated(func() { cycles, rerr = readCycles(data) })
		if allocs > limit {
			t.Fatalf("NewReader and Next over %d bytes (%d parsed) allocated %d bytes, limit %d",
				len(data), parsed, allocs, limit)
		}
		if (err == nil) != (rerr == nil) {
			t.Fatalf("ReadTrace err = %v, but NewReader and Next err = %v", err, rerr)
		}
		if err != nil {
			return
		}
		if cycles != tr.Cycles() {
			t.Fatalf("NewReader and Next read %d cycles, ReadTrace %d", cycles, tr.Cycles())
		}
		p, err := tr.Decode()
		if err != nil {
			t.Fatalf("ReadTrace accepted a stream its Decode rejects: %v", err)
		}
		checkAgainstStream(t, tr, p)
	})
}

// allocated returns how many bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// readCycles counts the cycles NewReader and Next read from data, and
// returns nil at a clean end of the stream.
func readCycles(data []byte) (uint64, error) {
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	for cycles := uint64(0); ; cycles++ {
		if _, _, err := rd.Next(); err == io.EOF {
			return cycles, nil
		} else if err != nil {
			return cycles, err
		}
	}
}

// inflatedLen is how many bytes a gzip-framed input inflates to before
// the stream ends or breaks, or 0 for a raw input.
func inflatedLen(data []byte) int {
	if len(data) < 2 || data[0] != gzipMagic0 || data[1] != gzipMagic1 {
		return 0
	}
	gz, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return 0
	}
	n, _ := io.Copy(io.Discard, gz) // a broken stream still counts what it inflated
	return int(n)
}

// checkAgainstStream re-derives every plane bit and aggregate of p from
// a Reader pass (Next) over tr, and fails on the first disagreement.
func checkAgainstStream(t *testing.T, tr *Trace, p *Packed) {
	t.Helper()
	rd, err := tr.Reader()
	if err != nil {
		t.Fatal(err)
	}
	if p.BackLatchStages() != rd.BackLatchStages() {
		t.Fatalf("packed view has %d stages, stream %d", p.BackLatchStages(), rd.BackLatchStages())
	}
	// Tight limits, so the over-capacity planes fire on small values.
	counts := [cpu.NumFUTypes]int{2, 1, 2, 1}
	const ports, width, window = 1, 2, 128
	overUnits, uerr := p.OverFullUnits(counts)
	overPorts, perr := p.OverFullDPorts(ports)
	overBus, berr := p.OverFullBus(width)
	overLatch, lerr := p.OverFullLatch(width)
	for _, err := range []error{uerr, perr, berr, lerr} {
		if err != nil {
			t.Fatalf("an over-capacity plane of a trace with its bytes failed: %v", err)
		}
	}
	planeBit := func(plane []uint64, c uint64) bool {
		return plane != nil && plane[c>>6]&(1<<(c&63)) != 0
	}

	var (
		m                         schedMirror
		lead                      uint64
		unitOn                    [cpu.NumFUTypes]int64
		dportOn, latchSum, valSum int64
		busHist                   [busHistMax + 1]int64
		fetch                     []int
		frac                      float64
		cycles                    uint64
	)
	for ; ; cycles++ {
		events, u, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("stream fails at cycle %d after ReadTrace accepted it: %v", cycles, err)
		}
		for i := range events {
			m.onIssue(&events[i], cycles, &lead)
		}
		c, idx := cycles, cycles%SchedHorizon
		busy := [cpu.NumFUTypes]uint32{u.IntALUBusy, u.IntMultBusy, u.FPALUBusy, u.FPMultBusy}
		unitOver, overFull := false, false
		for ft := range busy {
			sched := m.fu[ft][idx]
			m.fu[ft][idx] = 0
			unitOn[ft] += int64(bits.OnesCount32(sched))
			unitOver = unitOver || busy[ft]&^sched != 0
			overFull = overFull || busy[ft]&^maskN(counts[ft]) != 0
		}
		dp, bs := m.dport[idx], m.bus[idx]
		m.dport[idx], m.bus[idx] = 0, 0
		dportOn += dp
		busHist[min(bs, busHistMax)]++
		latchOver := false
		for s, v := range u.BackLatch {
			latchSum += int64(v)
			latchOver = latchOver || v > width
			if planeBit(p.LatchNonZeroPlane(s), c) != (v != 0) {
				t.Fatalf("cycle %d: latch[%d] plane disagrees with the stream", c, s)
			}
		}
		for _, v := range u.BackLatchNewVal {
			valSum += int64(v)
		}
		for _, chk := range []struct {
			name  string
			plane []uint64
			want  bool
		}{
			{"unit-sched-violation", p.UnitSchedViolationPlane(), unitOver},
			{"dport-sched-violation", p.DPortSchedViolationPlane(), int64(u.DPortUsed) > dp},
			{"bus-sched-violation", p.BusSchedViolationPlane(), int64(u.ResultBus) > bs},
			{"over-full-units", overUnits, overFull},
			{"over-full-dports", overPorts, u.DPortUsed > ports},
			{"over-full-bus", overBus, u.ResultBus > width},
			{"over-full-latch", overLatch, latchOver},
		} {
			if planeBit(chk.plane, c) != chk.want {
				t.Fatalf("cycle %d: %s plane bit %v, stream says %v", c, chk.name, !chk.want, chk.want)
			}
		}
		fetch = append(fetch, u.FetchCount)
		frac += float64(u.WindowOccupancy) / window
	}

	if p.Cycles() != cycles || tr.Cycles() != cycles || p.Words() != int((cycles+63)/64) {
		t.Fatalf("geometry: packed %d cycles / %d words, trace %d, stream %d",
			p.Cycles(), p.Words(), tr.Cycles(), cycles)
	}
	planes := [][]uint64{p.UnitSchedViolationPlane(), p.DPortSchedViolationPlane(),
		p.BusSchedViolationPlane(), overUnits, overPorts, overBus, overLatch}
	for s := 0; s < p.BackLatchStages(); s++ {
		planes = append(planes, p.LatchNonZeroPlane(s))
	}
	for i, pl := range planes {
		if pl == nil {
			continue
		}
		if len(pl) != p.Words() {
			t.Fatalf("plane %d has %d words, want %d", i, len(pl), p.Words())
		}
		if live := cycles % 64; live != 0 && pl[len(pl)-1]>>live != 0 {
			t.Fatalf("plane %d has bits past cycle %d in its tail word", i, cycles)
		}
	}

	if p.LeadViolations() != lead || p.DPortSchedSum() != dportOn || p.BackLatchSum() != latchSum {
		t.Fatalf("aggregates lead/dport/latch %d/%d/%d, stream %d/%d/%d",
			p.LeadViolations(), p.DPortSchedSum(), p.BackLatchSum(), lead, dportOn, latchSum)
	}
	for ft := cpu.FUType(0); ft < cpu.NumFUTypes; ft++ {
		if p.UnitSchedOnSum(ft) != unitOn[ft] {
			t.Fatalf("pool %d schedule sum %d, stream %d", ft, p.UnitSchedOnSum(ft), unitOn[ft])
		}
	}
	if sum, ok := p.BackLatchNewValSum(); ok != rd.hasLatchValue || sum != valSum {
		t.Fatalf("latchvalue sum %d (%v), stream %d", sum, ok, valSum)
	}
	for _, limit := range []int{8, busHistMax} {
		var want int64
		for b, cnt := range busHist {
			want += int64(min(b, limit)) * cnt
		}
		if got := p.BusSchedCappedSum(limit); got != want {
			t.Fatalf("BusSchedCappedSum(%d) = %d, stream %d", limit, got, want)
		}
	}
	// The deepest front end config.Validate accepts reads the whole kept
	// fetch tail.
	for _, depth := range []int{1, 3, config.MaxFrontEndStages} {
		var want int64
		for j, f := range fetch {
			want += int64(min(depth, len(fetch)-j)) * int64(f)
		}
		if got := p.FrontSlotsSum(depth); got != want {
			t.Fatalf("FrontSlotsSum(%d) = %d, stream %d", depth, got, want)
		}
	}
	if got := p.IssueQueueFracSum(window); got != frac {
		t.Fatalf("IssueQueueFracSum = %v, stream %v", got, frac)
	}
}

// latchValueCapture records a v2 trace that carries the latchvalue
// channel next to usage, with issue events on every third cycle.
func latchValueCapture(tb testing.TB, cycles int) *Trace {
	tb.Helper()
	rec, err := NewRecorder("lv", 2, ChannelLatchValue)
	if err != nil {
		tb.Fatal(err)
	}
	for c := 0; c < cycles; c++ {
		if c%3 == 0 {
			rec.OnIssue(cpu.IssueEvent{Cycle: uint64(c), FUIdx: c % 4, FUType: cpu.FUIntALU,
				FUStart: uint64(c + 1), FULat: 2, WritesReg: true, ResultBusCycle: uint64(c + 3)})
		}
		u := cpu.Usage{Cycle: uint64(c), IssueCount: c % 3, IntALUBusy: uint32(c % 5),
			ResultBus: c % 4, FetchCount: c % 7, WindowOccupancy: c % 50,
			BackLatch: []int{c % 3, c % 4}, BackLatchNewVal: []int{c % 3, c % 2}}
		rec.OnCycle(&u)
	}
	tr, err := rec.Trace()
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// gzipped returns data gzip-compressed as one member.
func gzipped(tb testing.TB, data []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write(data); err != nil {
		tb.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// encoded returns the trace's raw encoding.
func encoded(tb testing.TB, tr *Trace) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}
