package usagetrace

import (
	"fmt"
	"io"
	"math/bits"
	"slices"

	"dcg/internal/config"
	"dcg/internal/cpu"
)

// SchedHorizon is the DCG controller's schedule-ring depth in cycles
// (internal/gating keys its rings to this). The packed builder mirrors
// that ring at decode time, so gating aliases the constant here, in the
// lower layer. It is the core's ring depth, config.SchedHorizon.
const SchedHorizon = config.SchedHorizon

// SchedSpan returns how many consecutive schedule-ring slots an FU grant
// of latency lat marks: lat clamped to [0, SchedHorizon]. OR into a slot
// is idempotent, so a longer latency would only revisit the slots one
// revolution already set. The DCG controller and the decode-time mirror
// of its rings both mark this span, so the engines agree on every
// latency and neither does more than one revolution of work per grant.
func SchedSpan(lat int) uint64 { return uint64(min(max(lat, 0), SchedHorizon)) }

// busHistMax is the last bucket of the bus-schedule histogram: schedule
// counts >= busHistMax share one overflow bucket, which makes
// BusSchedCappedSum exact for any cap <= busHistMax — every issue width
// config.Validate accepts.
const busHistMax = 64

// Packed is a trace's decoded form: one uint64 word per 64 cycles per
// boolean signal (bit c%64 of word c/64 is cycle c), plus the few
// per-cycle values and the order-free aggregates the packed replay
// kernel (gating.PackedTally) reads, and nothing it does not. One
// builder (add) makes it from a stream of events and usage vectors,
// driven by the Recorder from the live core while it captures, and by
// one pass over the encoded bytes for a stored trace (ReadTrace,
// Trace.Decode); the two views of one stream are equal. No per-field
// usage columns or event slices are ever materialised. Two families of
// data live here:
//
//   - Usage aggregates — per latch stage, the cycles it carried an
//     instruction (a plane); the occupancy, value-change and fetch slot
//     sums; the 16-bit window-occupancy column; and the usage maxima
//     behind the lazy over-capacity planes.
//
//   - A DCG schedule mirror — the builder replays every issue event
//     through a ring identical to the gating controller's
//     (write-at-issue, read-and-clear at the scheduled cycle) and
//     records, per cycle, whether actual usage exceeded the schedule
//     (the scheme's gate-violation predicate) plus the order-free
//     aggregates (enabled-instance sums, lead violations, a
//     bus-schedule histogram) a power.Tally needs. One mirror serves
//     every DCG ablation: the controller's schedule writes do not
//     depend on which structure classes it gates.
//
// Tail-word discipline: bits at positions >= Cycles() in the last word
// are zero by construction, and every reader here only ORs and
// popcounts planes — nothing complements a plane — so kernels need no
// explicit tail mask. Anything that does complement a plane must mask
// the tail itself.
//
// A Packed is immutable after construction and safe for concurrent use.
type Packed struct {
	cycles uint64
	words  int
	stages int

	// data is the encoded stream of the view's events and usage, nil for a
	// view-only capture. Only the over-capacity planes, which no core
	// capture needs, re-read it.
	data []byte

	// latchNZ holds one plane per back-end latch stage: the cycles the
	// stage carried an instruction.
	latchNZ [][]uint64

	// latchValue reports the latchvalue channel; backLatchNewValSum is its
	// summed value-change slot count.
	latchValue         bool
	backLatchNewValSum int64

	// Schedule-violation planes: cycles where actual usage exceeded the
	// mirrored DCG schedule (gate violations for the gated classes).
	unitOverSched  []uint64
	dportOverSched []uint64
	busOverSched   []uint64

	// Order-free aggregates of the mirrored schedule.
	schedUnitOn  [cpu.NumFUTypes]int64
	dportSchedOn int64
	busSchedHist [busHistMax + 1]int64
	backLatchSum int64
	fetchSum     int64
	leadViol     uint64

	// occ is the window-occupancy column: the oracle's issue-queue
	// fraction is a float series that must be summed in cycle order.
	// Occupancy fits 16 bits (config.MaxWindowSize), which keeps the
	// column, most of a view's bytes, at two bytes a cycle. fetchTail
	// holds the last fetchTailLen fetch counts, ring-indexed by cycle, for
	// FrontSlotsSum's end-of-run correction.
	occ       []uint16
	fetchTail [fetchTailLen]int

	// Usage maxima, so the lazy over-capacity planes can prove "no
	// violation possible" without a pass: on a trace captured by the
	// core these always hold, and the O(cycles) re-reads never run.
	busyOr   [cpu.NumFUTypes]uint32
	maxDPort int
	maxBus   int
	maxLatch int

	// A throttled capture's view (Recorder.SetThrottle) keeps one
	// LimitsSums per distinct Limits value, lim indexing the current one
	// (-1 before the first, and in an unthrottled view), and limitRuns
	// them in cycle order.
	limits    []LimitsSums
	lim       int
	limitRuns []limitsRun

	// The core caps result buses and latch slots at the width but not
	// D-port use (a store delayed a cycle can land beside that cycle's
	// loads), so a capture's view builds the over-capacity D-port plane
	// as it goes: the Recorder hands it the machine's port count and the
	// plane at the first cycle whose D-port use exceeds them, and every
	// such cycle from then on sets its bit. A view that never exceeds
	// them, and a decoded one, has neither, and a decode's plane re-reads
	// the bytes.
	ports     int
	overDPort []uint64
}

// LimitsSums is what a throttled capture's view sums over the cycles run
// under one cpu.Limits value its throttle returned, for the tally of a
// drain-aware scheme gating to those limits (gating.PackedTally's PLB
// family): UnitOn[t] sums popcount(mask(pool t's limit) | busy), LatchOn
// max(Limits.IssueWidth, BackLatch[s]) over the stages, DPortOn
// max(Limits.DPorts, DPortUsed) and BusOn max(Limits.IssueWidth,
// ResultBus). Each Sched form sums the cycle's minimum of that and the
// mirrored DCG schedule (the AND, for the unit masks).
type LimitsSums struct {
	Limits                cpu.Limits
	UnitOn, UnitSchedOn   [cpu.NumFUTypes]int64
	LatchOn               int64
	DPortOn, DPortSchedOn int64
	BusOn, BusSchedOn     int64
}

// limitsRun starts a stretch of cycles under one limits entry.
type limitsRun struct {
	lim   int
	start uint64
}

// fetchTailLen is how many trailing fetch counts a Packed keeps: enough
// for FrontSlotsSum over any front end config.Validate accepts, up to
// config.MaxFrontEndStages deep (the baseline has three, Deep seven).
const fetchTailLen = config.MaxFrontEndStages - 1

// growFloorWords is the words a Recorder's view starts its planes with. A
// Recorder cannot know its cycle count up front, so it grows every plane
// and the occupancy column together (reserve), doubling from this floor
// of 65,536 cycles, which keeps a capture's plane allocations few.
const growFloorWords = 1024

// schedMirror replicates the DCG controller's schedule rings
// (gating.DCG.fuSched/dportSched/busSched) cycle for cycle. The FU ring
// writes cover SchedSpan, as the controller's do, while the count rings
// take one increment per event.
type schedMirror struct {
	fu    [cpu.NumFUTypes][SchedHorizon]uint32
	dport [SchedHorizon]int64
	bus   [SchedHorizon]int64
}

// onIssue mirrors gating.DCG.OnIssue for an event issued at cycle,
// including its per-aspect lead accounting: an event late on its FU
// start, D-port cycle, and result-bus cycle counts three violations,
// exactly as the controller does.
func (m *schedMirror) onIssue(ev *cpu.IssueEvent, cycle uint64, lead *uint64) {
	if ev.FUIdx >= 0 {
		if ev.FUStart <= cycle {
			*lead++
		}
		for c := ev.FUStart; c < ev.FUStart+SchedSpan(ev.FULat); c++ {
			m.fu[ev.FUType][c%SchedHorizon] |= 1 << uint(ev.FUIdx)
		}
	}
	if ev.IsLoad || ev.IsStore {
		if ev.DPortCycle <= cycle {
			*lead++
		}
		m.dport[ev.DPortCycle%SchedHorizon]++
	}
	if ev.WritesReg {
		if ev.ResultBusCycle <= cycle {
			*lead++
		}
		m.bus[ev.ResultBusCycle%SchedHorizon]++
	}
}

// empty returns how many of the n cycles from cycle c come before the
// first whose schedule slots hold work.
func (m *schedMirror) empty(c, n uint64) uint64 {
	for k := uint64(0); k < n; k++ {
		i := (c + k) % SchedHorizon
		if m.fu[0][i]|m.fu[1][i]|m.fu[2][i]|m.fu[3][i] != 0 || m.dport[i] != 0 || m.bus[i] != 0 {
			return k
		}
	}
	return n
}

// decodePacked parses the encoded trace once, in place, and builds its
// packed view, handing each record's events and usage to the builder
// (add). A stream that fails to parse anywhere, end marker included,
// fails the decode, and so does one that claims more cycles than
// maxCycles allows its length (the Reader refuses the record that would
// pass it). want is the cycle count the stream must hold (a trace
// header's, or the one its end marker declares), and the planes are
// sized for it once, before the loop, or not at all when want is past
// that bound. A stream that runs past want is invalid whatever follows,
// so the rest is only parsed, building nothing, to report its fault. The
// reader is returned for its header metadata.
func decodePacked(data []byte, want uint64) (*Packed, *Reader, error) {
	rd, err := newReader(data)
	if err != nil {
		return nil, nil, err
	}
	p := newPacked(rd.stages, rd.hasLatchValue)
	size := want
	if size > rd.limit {
		size = 0 // the stream cannot hold them: build nothing
	}
	p.grow(int((size + 63) / 64))
	m := &schedMirror{}
	for {
		events, u, n, err := rd.NextRun()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		if p.cycles+n > size {
			p.cycles += n
			continue
		}
		p.add(m, events, u, n)
	}
	if p.cycles != want {
		return nil, nil, fmt.Errorf("usagetrace: decoded %d cycles but trace header declares %d", p.cycles, want)
	}
	p.finish(data)
	return p, rd, nil
}

// newPacked returns an empty view of a trace with the given latch stages
// and channels, its planes not yet sized.
func newPacked(stages int, latchValue bool) *Packed {
	return &Packed{stages: stages, latchValue: latchValue, latchNZ: make([][]uint64, stages), lim: -1}
}

// grow sizes every plane to words words and the occupancy column to
// words*64 cycles, keeping what they hold.
func (p *Packed) grow(words int) {
	resize := func(plane []uint64) []uint64 {
		out := make([]uint64, words)
		copy(out, plane)
		return out
	}
	for s := range p.latchNZ {
		p.latchNZ[s] = resize(p.latchNZ[s])
	}
	p.unitOverSched = resize(p.unitOverSched)
	p.dportOverSched = resize(p.dportOverSched)
	p.busOverSched = resize(p.busOverSched)
	if p.overDPort != nil {
		p.overDPort = resize(p.overDPort)
	}
	occ := make([]uint16, len(p.occ), words*64)
	copy(occ, p.occ)
	p.occ = occ
}

// reserve makes room for n more cycles, doubling the planes when they
// are full.
func (p *Packed) reserve(n uint64) {
	have := len(p.unitOverSched)
	if need := (p.cycles + n + 63) / 64; need > uint64(have) {
		p.grow(int(max(need, uint64(2*have))))
	}
}

// finish trims the planes and the occupancy column to the cycles built
// and records the encoded stream, data, that holds them (nil when the
// capture kept none). A view is held as long as its trace is cached, so
// the columns a Recorder grew past its cycles (doubling leaves up to
// half unused) are copied out at their size; the decode sized them once
// and keeps them.
func (p *Packed) finish(data []byte) {
	p.words = int((p.cycles + 63) / 64)
	trim := func(plane []uint64) []uint64 {
		if cap(plane) == p.words {
			return plane
		}
		return append(make([]uint64, 0, p.words), plane[:p.words]...)
	}
	for s := range p.latchNZ {
		p.latchNZ[s] = trim(p.latchNZ[s])
	}
	p.unitOverSched = trim(p.unitOverSched)
	p.dportOverSched = trim(p.dportOverSched)
	p.busOverSched = trim(p.busOverSched)
	if p.overDPort != nil {
		p.overDPort = trim(p.overDPort)
	}
	if cap(p.occ)-len(p.occ) >= 64 {
		p.occ = append(make([]uint16, 0, len(p.occ)), p.occ...)
	}
	p.data = data
}

// add folds a run of n cycles, each with usage u, into the view: the
// events issued in its first cycle feed the schedule mirror, strictly
// before that cycle's usage as the core delivers them, and then each
// stretch of the run's cycles whose schedule slots are empty is added at
// once, and a cycle whose slot holds work alone. The planes must have
// room for the run.
func (p *Packed) add(m *schedMirror, events []cpu.IssueEvent, u *cpu.Usage, n uint64) {
	for i := range events {
		m.onIssue(&events[i], p.cycles, &p.leadViol)
	}
	if n == 1 {
		p.addCycle(m, u)
		return
	}
	for n > 0 {
		if k := m.empty(p.cycles, n); k > 0 {
			p.addQuiet(u, k)
			n -= k
		}
		if n > 0 {
			p.addCycle(m, u)
			n--
		}
	}
}

// addCycle folds one cycle's usage vector into the view, reading and
// clearing the mirror's schedule slot for the cycle.
func (p *Packed) addCycle(m *schedMirror, u *cpu.Usage) {
	c := p.cycles
	idx := c % SchedHorizon
	w, bit := c>>6, uint64(1)<<(c&63)

	dp := m.dport[idx]
	m.dport[idx] = 0
	bs := m.bus[idx]
	m.bus[idx] = 0
	p.dportSchedOn += dp
	if bs < busHistMax {
		p.busSchedHist[bs]++
	} else {
		p.busSchedHist[busHistMax]++
	}

	busy := [cpu.NumFUTypes]uint32{u.IntALUBusy, u.IntMultBusy, u.FPALUBusy, u.FPMultBusy}
	var sched [cpu.NumFUTypes]uint32
	unitOver := false
	for t := 0; t < int(cpu.NumFUTypes); t++ {
		sched[t] = m.fu[t][idx]
		m.fu[t][idx] = 0
		p.schedUnitOn[t] += int64(bits.OnesCount32(sched[t]))
		p.busyOr[t] |= busy[t]
		if busy[t]&^sched[t] != 0 {
			unitOver = true
		}
	}
	if unitOver {
		p.unitOverSched[w] |= bit
	}
	if p.lim >= 0 {
		p.addLimited(&busy, &sched, dp, bs, u, 1)
	}

	p.maxDPort = max(p.maxDPort, u.DPortUsed)
	if int64(u.DPortUsed) > dp {
		p.dportOverSched[w] |= bit
	}
	if p.overDPort != nil && u.DPortUsed > p.ports {
		p.overDPort[w] |= bit
	}

	p.maxBus = max(p.maxBus, u.ResultBus)
	if int64(u.ResultBus) > bs {
		p.busOverSched[w] |= bit
	}

	for s, v := range u.BackLatch {
		if v != 0 {
			p.latchNZ[s][w] |= bit
		}
		p.maxLatch = max(p.maxLatch, v)
		p.backLatchSum += int64(v)
	}
	if p.latchValue {
		for _, v := range u.BackLatchNewVal {
			p.backLatchNewValSum += int64(v)
		}
	}
	p.fetchSum += int64(u.FetchCount)
	p.fetchTail[c%fetchTailLen] = u.FetchCount
	p.occ = append(p.occ, uint16(u.WindowOccupancy))
	p.cycles++
}

// addQuiet folds n cycles that each have usage u and empty schedule slots
// into the view at once: what addCycle does n times with every slot
// reading zero.
func (p *Packed) addQuiet(u *cpu.Usage, n uint64) {
	lo, hi := p.cycles, p.cycles+n
	k := int64(n)
	p.busSchedHist[0] += k

	busy := [cpu.NumFUTypes]uint32{u.IntALUBusy, u.IntMultBusy, u.FPALUBusy, u.FPMultBusy}
	for t, b := range busy {
		p.busyOr[t] |= b
		if b != 0 {
			setRange(p.unitOverSched, lo, hi)
		}
	}
	if p.lim >= 0 {
		p.addLimited(&busy, &[cpu.NumFUTypes]uint32{}, 0, 0, u, n)
	}
	if u.DPortUsed > 0 {
		setRange(p.dportOverSched, lo, hi)
	}
	if p.overDPort != nil && u.DPortUsed > p.ports {
		setRange(p.overDPort, lo, hi)
	}
	p.maxDPort = max(p.maxDPort, u.DPortUsed)
	if u.ResultBus > 0 {
		setRange(p.busOverSched, lo, hi)
	}
	p.maxBus = max(p.maxBus, u.ResultBus)

	for s, v := range u.BackLatch {
		if v != 0 {
			setRange(p.latchNZ[s], lo, hi)
		}
		p.maxLatch = max(p.maxLatch, v)
		p.backLatchSum += int64(v) * k
	}
	if p.latchValue {
		for _, v := range u.BackLatchNewVal {
			p.backLatchNewValSum += int64(v) * k
		}
	}
	p.fetchSum += int64(u.FetchCount) * k
	for c := max(lo, hi-min(hi, fetchTailLen)); c < hi; c++ {
		p.fetchTail[c%fetchTailLen] = u.FetchCount
	}
	occ := uint16(u.WindowOccupancy)
	for range n {
		p.occ = append(p.occ, occ)
	}
	p.cycles = hi
}

// setLimits makes l the limits of the cycles added next.
func (p *Packed) setLimits(l cpu.Limits) {
	if p.lim >= 0 && p.limits[p.lim].Limits == l {
		return
	}
	p.lim = slices.IndexFunc(p.limits, func(s LimitsSums) bool { return s.Limits == l })
	if p.lim < 0 {
		p.lim = len(p.limits)
		p.limits = append(p.limits, LimitsSums{Limits: l})
	}
	p.limitRuns = append(p.limitRuns, limitsRun{lim: p.lim, start: p.cycles})
}

// addLimited adds n cycles, each with usage u, FU busy masks busy and
// schedule slots sched, dp and bs, to the current limits' sums.
func (p *Packed) addLimited(busy, sched *[cpu.NumFUTypes]uint32, dp, bs int64, u *cpu.Usage, n uint64) {
	s := &p.limits[p.lim]
	l := &s.Limits
	k := int64(n)
	enabled := [cpu.NumFUTypes]int{l.IntALU, l.IntMult, l.FPALU, l.FPMult}
	for t, b := range busy {
		on := maskN(enabled[t]) | b
		s.UnitOn[t] += k * int64(bits.OnesCount32(on))
		s.UnitSchedOn[t] += k * int64(bits.OnesCount32(on&sched[t]))
	}
	for _, v := range u.BackLatch {
		s.LatchOn += k * int64(max(l.IssueWidth, v))
	}
	dports := int64(max(l.DPorts, u.DPortUsed))
	s.DPortOn += k * dports
	s.DPortSchedOn += k * min(dp, dports)
	bus := int64(max(l.IssueWidth, u.ResultBus))
	s.BusOn += k * bus
	s.BusSchedOn += k * min(bs, bus)
}

// setRange sets bits [lo, hi) of plane, a word at a time.
func setRange(plane []uint64, lo, hi uint64) {
	for lo < hi {
		end := min(hi, (lo|63)+1)
		plane[lo>>6] |= ^uint64(0) >> (64 - (end - lo)) << (lo & 63)
		lo = end
	}
}

// planeWhere builds, in one pass over the encoded stream, the plane of
// cycles whose usage vector satisfies pred. A view built without the
// stream fails, naming the plane. The stream was fully parsed when the
// view was built and is immutable, so a read error here is a bug, not
// bad input.
func (p *Packed) planeWhere(name string, pred func(u *cpu.Usage) bool) ([]uint64, error) {
	if p.data == nil {
		return nil, fmt.Errorf("usagetrace: the over-capacity %s plane re-reads the encoded stream, "+
			"and this view was %w", name, ErrNoBytes)
	}
	plane := make([]uint64, p.words)
	rd, err := newReader(p.data)
	for err == nil {
		var u *cpu.Usage
		if _, u, err = rd.Next(); err == nil && pred(u) {
			plane[u.Cycle>>6] |= 1 << (u.Cycle & 63)
		}
	}
	if err != io.EOF {
		panic("usagetrace: re-reading a decoded trace failed: " + err.Error())
	}
	return plane, nil
}

// Cycles returns the decoded cycle count.
func (p *Packed) Cycles() uint64 { return p.cycles }

// BackLatchStages returns the trace's gatable back-end latch stage count
// (the number of latch planes).
func (p *Packed) BackLatchStages() int { return p.stages }

// Words returns the per-plane word count, (Cycles+63)/64.
func (p *Packed) Words() int { return p.words }

// LatchNonZeroPlane returns the plane with bit c set when back-end latch
// stage s carried any instruction at cycle c.
func (p *Packed) LatchNonZeroPlane(s int) []uint64 { return p.latchNZ[s] }

// UnitSchedViolationPlane returns the plane with bit c set when some FU
// pool's busy mask escaped the mirrored schedule mask at cycle c — the
// gate-violation predicate for a scheme gating execution units.
func (p *Packed) UnitSchedViolationPlane() []uint64 { return p.unitOverSched }

// DPortSchedViolationPlane is the same predicate for the D-cache
// wordline decoders: ports used beyond the schedule count.
func (p *Packed) DPortSchedViolationPlane() []uint64 { return p.dportOverSched }

// BusSchedViolationPlane is the same predicate for the result-bus
// drivers, against the raw (uncapped) schedule count.
func (p *Packed) BusSchedViolationPlane() []uint64 { return p.busOverSched }

// UnitSchedOnSum returns the summed popcount of pool t's mirrored
// schedule masks over all cycles — a unit-gating scheme's enabled
// unit-cycles.
func (p *Packed) UnitSchedOnSum(t cpu.FUType) int64 { return p.schedUnitOn[t] }

// DPortSchedSum returns the summed D-port schedule counts (a
// dcache-gating scheme's raw enabled port-cycles; may exceed
// ports x cycles, exactly as the controller reports it).
func (p *Packed) DPortSchedSum() int64 { return p.dportSchedOn }

// BusSchedCappedSum returns the sum over cycles of min(schedule count,
// limit) — a bus-gating scheme's enabled driver-cycles under issue width
// limit. The histogram's overflow bucket lumps counts >= busHistMax
// together, so the sum is exact for every limit <= busHistMax, which
// config.Validate holds the issue width to.
func (p *Packed) BusSchedCappedSum(limit int) (sum int64) {
	for b, cnt := range p.busSchedHist {
		sum += int64(min(b, limit)) * cnt
	}
	return sum
}

// BackLatchSum returns the summed back-end latch occupancy over all
// stages and cycles — a latch-gating scheme's enabled slot-cycles.
func (p *Packed) BackLatchSum() int64 { return p.backLatchSum }

// BackLatchNewValSum returns the summed value-change slot count over all
// stages and cycles — a value-dependent latch-gating scheme's enabled
// slot-cycles. ok is false when the trace has no latchvalue channel.
func (p *Packed) BackLatchNewValSum() (sum int64, ok bool) {
	return p.backLatchNewValSum, p.latchValue
}

// LeadViolations returns the mirrored controller's advance-knowledge
// violations (events arriving without >= 1 cycle of lead), with the
// controller's per-aspect accounting.
func (p *Packed) LeadViolations() uint64 { return p.leadViol }

// FrontSlotsSum returns the oracle scheme's enabled front-latch
// slot-cycles in closed form: stage s of a depth-stage front end carries
// the fetch flow delayed s cycles, so the fetch count of cycle j is
// counted min(depth, n-j) times — depth times, minus the tail cycles
// that fall off the end of the run. The correction reads the kept fetch
// tail, which covers every depth up to config.MaxFrontEndStages, so depth
// must not exceed it (gating.PackedTally refuses such an oracle).
func (p *Packed) FrontSlotsSum(depth int) int64 {
	if depth <= 0 {
		return 0
	}
	sum := int64(depth) * p.fetchSum
	n := p.cycles
	tail := min(uint64(depth-1), n)
	for k := uint64(1); k <= tail; k++ {
		sum -= int64(uint64(depth)-k) * int64(p.fetchTail[(n-k)%fetchTailLen])
	}
	return sum
}

// IssueQueueFracSum returns the summed per-cycle issue-queue enabled
// fraction for an occupancy-gating (oracle) scheme: occupancy/window,
// accumulated in cycle order with exactly the float operations the
// scalar accountant performs, so the result is bit-identical to a
// sequential replay's. window <= 0 means the queue is never gated and
// the fraction is 1.0 every cycle.
func (p *Packed) IssueQueueFracSum(window int) float64 {
	if window <= 0 {
		return float64(p.cycles)
	}
	w := float64(window)
	var sum float64
	for _, occ := range p.occ {
		sum += float64(occ) / w
	}
	return sum
}

// Limits returns a throttled capture's per-limits sums, one entry per
// distinct cpu.Limits value its throttle returned, in first-seen order;
// nil for an unthrottled capture or a decoded trace, whose bytes carry no
// limits. Callers must not mutate the entries.
func (p *Packed) Limits() []LimitsSums { return p.limits }

// IssueWidthFracSum returns a throttled capture's per-cycle issue-width
// fraction, Limits.IssueWidth/width, summed in cycle order with one add
// per cycle, so the result is bit-identical to the scalar accountant's
// sum of a throttling scheme's issue-queue fraction (PLB's mode width
// over the machine's).
func (p *Packed) IssueWidthFracSum(width int) float64 {
	var sum float64
	for i, r := range p.limitRuns {
		end := p.cycles
		if i+1 < len(p.limitRuns) {
			end = p.limitRuns[i+1].start
		}
		frac := float64(p.limits[r.lim].Limits.IssueWidth) / float64(width)
		for range end - r.start {
			sum += frac
		}
	}
	return sum
}

// maskN mirrors gating's unit-mask construction: n low bits set,
// saturating at the 32-bit mask width.
func maskN(n int) uint32 {
	if n >= 32 {
		return ^uint32(0)
	}
	return (1 << uint(n)) - 1
}

// The OverFull* planes are the violation predicates of ungated
// structure classes: usage beyond capacity. Each returns nil when the
// recorded maximum proves no such cycle exists — the invariant on any
// trace the core captured but for D-ports, making them free in the
// common case — and otherwise builds its plane from one pass over the
// encoded stream, or fails when the view has none (a view-only capture).
// A capture's view serves the D-port plane it built while capturing.

// OverFullUnits returns the plane of cycles where some FU pool's busy
// mask escaped even the all-enabled mask for the given pool sizes.
func (p *Packed) OverFullUnits(counts [cpu.NumFUTypes]int) ([]uint64, error) {
	var enabled [cpu.NumFUTypes]uint32
	possible := false
	for t := range enabled {
		enabled[t] = maskN(counts[t])
		if p.busyOr[t]&^enabled[t] != 0 {
			possible = true
		}
	}
	if !possible {
		return nil, nil
	}
	return p.planeWhere("units", func(u *cpu.Usage) bool {
		return u.IntALUBusy&^enabled[cpu.FUIntALU] != 0 ||
			u.IntMultBusy&^enabled[cpu.FUIntMult] != 0 ||
			u.FPALUBusy&^enabled[cpu.FUFPALU] != 0 ||
			u.FPMultBusy&^enabled[cpu.FUFPMult] != 0
	})
}

// OverFullDPorts returns the plane of cycles using more D-cache ports
// than the machine has.
func (p *Packed) OverFullDPorts(ports int) ([]uint64, error) {
	if p.maxDPort <= ports {
		return nil, nil
	}
	if p.overDPort != nil && ports == p.ports {
		return p.overDPort, nil
	}
	return p.planeWhere("D-port", func(u *cpu.Usage) bool { return u.DPortUsed > ports })
}

// OverFullBus returns the plane of cycles driving more result buses than
// the issue width.
func (p *Packed) OverFullBus(width int) ([]uint64, error) {
	if p.maxBus <= width {
		return nil, nil
	}
	return p.planeWhere("result-bus", func(u *cpu.Usage) bool { return u.ResultBus > width })
}

// OverFullLatch returns the plane of cycles where some back-end latch
// stage carried more instructions than the issue width.
func (p *Packed) OverFullLatch(width int) ([]uint64, error) {
	if p.maxLatch <= width {
		return nil, nil
	}
	return p.planeWhere("latch", func(u *cpu.Usage) bool {
		for _, v := range u.BackLatch {
			if v > width {
				return true
			}
		}
		return false
	})
}

// ViolationCycles ORs the given planes word-at-a-time and popcounts the
// union: the number of cycles on which at least one selected violation
// predicate fired. This matches the scalar accountant exactly, which
// counts at most one gate violation per cycle however many structures
// misfired. nil planes (the "no violation possible" result of the lazy
// builders) are skipped.
func (p *Packed) ViolationCycles(planes ...[]uint64) uint64 {
	// Callers pass at most five planes, so filtering into a stack
	// buffer keeps the kernel allocation-free.
	var buf [8][]uint64
	live := buf[:0]
	for _, pl := range planes {
		if pl != nil {
			live = append(live, pl)
		}
	}
	if len(live) == 0 {
		return 0
	}
	var total uint64
	for w := 0; w < p.words; w++ {
		union := uint64(0)
		for _, pl := range live {
			union |= pl[w]
		}
		total += uint64(bits.OnesCount64(union))
	}
	return total
}
