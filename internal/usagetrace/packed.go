package usagetrace

import (
	"bytes"
	"fmt"
	"io"
	"math/bits"

	"dcg/internal/cpu"
)

// SchedHorizon is the DCG controller's schedule-ring depth in cycles
// (internal/gating keys its rings to this). The packed builder mirrors
// that ring at decode time, so the constant lives here — the lower layer
// — and gating aliases it.
const SchedHorizon = 8192

// busHistMax is the last bucket of the bus-schedule histogram: schedule
// counts >= busHistMax share one overflow bucket, which makes
// BusSchedCappedSum exact for any cap <= busHistMax (every realistic
// issue width) and detectably inexact beyond it.
const busHistMax = 64

// Packed is a trace's decoded form: one uint64 word per 64 cycles per
// boolean signal (bit c%64 of word c/64 is cycle c), plus the few
// per-cycle values and the order-free aggregates the packed replay
// kernel reads. One streaming pass over the encoded bytes builds it
// (Trace.Decode, ReadTrace); no per-field usage columns or event slices
// are ever materialised. Two families of data live here:
//
//   - Usage planes — FU-pool-busy, D-port-use, latch-stage-non-zero,
//     issue-non-empty, commit-non-empty — the threshold form of the raw
//     usage vectors. They are the substrate word-at-a-time gating
//     kernels operate on (and what future multi-stage schemes in the
//     LECTOR family would AND against their own activity masks).
//
//   - A DCG schedule mirror — the pass replays every issue event
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

	// data is the encoded stream the view was built from. Only the slow
	// paths that no core capture reaches (over-capacity planes, very
	// deep front ends) re-read it.
	data []byte

	// Usage planes.
	fuBusy   [cpu.NumFUTypes][]uint64
	dportUse []uint64
	latchNZ  [][]uint64 // per back-end latch stage
	issueNE  []uint64
	commitNE []uint64

	// Latchvalue-channel planes and aggregates: per-stage value-change
	// non-zero bits and the summed value-change slot count. nil/zero when
	// the trace does not carry the latchvalue channel.
	latchValNZ         [][]uint64
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
	// fetchTail holds the last fetchTailLen fetch counts, ring-indexed by
	// cycle, for FrontSlotsSum's end-of-run correction.
	occ       []int
	fetchTail [fetchTailLen]int

	// Usage maxima, so the lazy over-capacity planes can prove "no
	// violation possible" without a pass: on a trace captured by the
	// core these always hold, and the O(cycles) re-reads never run.
	busyOr   [cpu.NumFUTypes]uint32
	maxDPort int
	maxBus   int
	maxLatch int
}

// fetchTailLen is how many trailing fetch counts a Packed keeps: enough
// for any front end up to fetchTailLen+1 stages deep (the baseline has
// three) without re-reading the stream.
const fetchTailLen = 64

// schedMirror replicates the DCG controller's schedule rings
// (gating.DCG.fuSched/dportSched/busSched) cycle for cycle. The FU ring
// writes are clamped to one full revolution — OR into a slot is
// idempotent, so an event latency beyond SchedHorizon touches exactly
// the same slot set either way — while the count rings take one
// increment per event and need no clamp.
type schedMirror struct {
	fu    [cpu.NumFUTypes][SchedHorizon]uint32
	dport [SchedHorizon]int64
	bus   [SchedHorizon]int64
}

// onIssue mirrors gating.DCG.OnIssue, including its per-aspect lead
// accounting: an event late on its FU start, D-port cycle, and
// result-bus cycle counts three violations, exactly as the controller
// does.
func (m *schedMirror) onIssue(ev *cpu.IssueEvent, lead *uint64) {
	if ev.FUIdx >= 0 {
		if ev.FUStart <= ev.Cycle {
			*lead++
		}
		lat := uint64(ev.FULat)
		if lat > SchedHorizon {
			lat = SchedHorizon
		}
		for c := ev.FUStart; c < ev.FUStart+lat; c++ {
			m.fu[ev.FUType][c%SchedHorizon] |= 1 << uint(ev.FUIdx)
		}
	}
	if ev.IsLoad || ev.IsStore {
		if ev.DPortCycle <= ev.Cycle {
			*lead++
		}
		m.dport[ev.DPortCycle%SchedHorizon]++
	}
	if ev.WritesReg {
		if ev.ResultBusCycle <= ev.Cycle {
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

// decodePacked streams the encoded trace once and builds its packed
// view: each cycle's issue events feed the schedule mirror in the core's
// delivery order (strictly before that cycle's usage), then the usage
// vector sets the planes, aggregates and maxima; a repeat record's cycles
// are added as runs. A stream that fails to parse anywhere, end marker
// included, fails the decode, and so does one that claims more cycles
// than maxCycles allows its length. want is the cycle count the stream
// must hold (a trace header's, or the one its end marker declares), and
// the planes are sized for it once. A stream that runs past it is invalid
// whatever follows, so the rest is only parsed, building nothing, to
// report its fault. The reader is returned for its header metadata.
func decodePacked(data []byte, want uint64) (*Packed, *Reader, error) {
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, nil, err
	}
	p := &Packed{stages: rd.stages, data: data}
	limit := maxCycles(uint64(len(data)), recordBytes(rd.stages, rd.hasLatchValue))
	size := want
	if size > limit {
		size = 0 // the stream cannot hold them: build nothing
	}
	words := int((size + 63) / 64)
	plane := func(pl *[]uint64) { *pl = make([]uint64, words) }
	for t := range p.fuBusy {
		plane(&p.fuBusy[t])
	}
	p.latchNZ = make([][]uint64, rd.stages)
	for s := range p.latchNZ {
		plane(&p.latchNZ[s])
	}
	if rd.hasLatchValue {
		p.latchValNZ = make([][]uint64, rd.stages)
		for s := range p.latchValNZ {
			plane(&p.latchValNZ[s])
		}
	}
	for _, pl := range []*[]uint64{&p.dportUse, &p.issueNE, &p.commitNE,
		&p.unitOverSched, &p.dportOverSched, &p.busOverSched} {
		plane(pl)
	}
	p.occ = make([]int, 0, size)

	m := &schedMirror{}
	for {
		events, u, n, err := rd.NextRun()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		if n > limit-p.cycles {
			return nil, nil, fmt.Errorf("usagetrace: implausible cycle count at cycle %d: a %d-byte stream may claim at most %d",
				p.cycles, len(data), limit)
		}
		if p.cycles+n > size {
			p.cycles += n
			continue
		}
		for i := range events {
			m.onIssue(&events[i], &p.leadViol)
		}
		if n == 1 {
			p.addCycle(m, u)
			continue
		}
		// Each stretch of a run's cycles whose schedule slots are empty is
		// added at once; a cycle whose slot holds work goes alone.
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
	if p.cycles != want {
		return nil, nil, fmt.Errorf("usagetrace: decoded %d cycles but trace header declares %d", p.cycles, want)
	}
	p.words = words
	return p, rd, nil
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
	unitOver := false
	for t := 0; t < int(cpu.NumFUTypes); t++ {
		sched := m.fu[t][idx]
		m.fu[t][idx] = 0
		p.schedUnitOn[t] += int64(bits.OnesCount32(sched))
		p.busyOr[t] |= busy[t]
		if busy[t] != 0 {
			p.fuBusy[t][w] |= bit
		}
		if busy[t]&^sched != 0 {
			unitOver = true
		}
	}
	if unitOver {
		p.unitOverSched[w] |= bit
	}

	if u.DPortUsed > 0 {
		p.dportUse[w] |= bit
	}
	p.maxDPort = max(p.maxDPort, u.DPortUsed)
	if int64(u.DPortUsed) > dp {
		p.dportOverSched[w] |= bit
	}

	p.maxBus = max(p.maxBus, u.ResultBus)
	if int64(u.ResultBus) > bs {
		p.busOverSched[w] |= bit
	}

	if u.IssueCount != 0 {
		p.issueNE[w] |= bit
	}
	if u.CommitCount != 0 {
		p.commitNE[w] |= bit
	}

	for s, v := range u.BackLatch {
		if v != 0 {
			p.latchNZ[s][w] |= bit
		}
		p.maxLatch = max(p.maxLatch, v)
		p.backLatchSum += int64(v)
	}
	if p.latchValNZ != nil {
		for s, v := range u.BackLatchNewVal {
			if v != 0 {
				p.latchValNZ[s][w] |= bit
			}
			p.backLatchNewValSum += int64(v)
		}
	}
	p.fetchSum += int64(u.FetchCount)
	p.fetchTail[c%fetchTailLen] = u.FetchCount
	p.occ = append(p.occ, u.WindowOccupancy)
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
			setRange(p.fuBusy[t], lo, hi)
			setRange(p.unitOverSched, lo, hi)
		}
	}
	if u.DPortUsed > 0 {
		setRange(p.dportUse, lo, hi)
		setRange(p.dportOverSched, lo, hi)
	}
	p.maxDPort = max(p.maxDPort, u.DPortUsed)
	if u.ResultBus > 0 {
		setRange(p.busOverSched, lo, hi)
	}
	p.maxBus = max(p.maxBus, u.ResultBus)
	if u.IssueCount != 0 {
		setRange(p.issueNE, lo, hi)
	}
	if u.CommitCount != 0 {
		setRange(p.commitNE, lo, hi)
	}

	for s, v := range u.BackLatch {
		if v != 0 {
			setRange(p.latchNZ[s], lo, hi)
		}
		p.maxLatch = max(p.maxLatch, v)
		p.backLatchSum += int64(v) * k
	}
	if p.latchValNZ != nil {
		for s, v := range u.BackLatchNewVal {
			if v != 0 {
				setRange(p.latchValNZ[s], lo, hi)
			}
			p.backLatchNewValSum += int64(v) * k
		}
	}
	p.fetchSum += int64(u.FetchCount) * k
	for c := max(lo, hi-min(hi, fetchTailLen)); c < hi; c++ {
		p.fetchTail[c%fetchTailLen] = u.FetchCount
	}
	for range n {
		p.occ = append(p.occ, u.WindowOccupancy)
	}
	p.cycles = hi
}

// setRange sets bits [lo, hi) of plane, a word at a time.
func setRange(plane []uint64, lo, hi uint64) {
	for lo < hi {
		end := min(hi, (lo|63)+1)
		plane[lo>>6] |= ^uint64(0) >> (64 - (end - lo)) << (lo & 63)
		lo = end
	}
}

// scan re-reads the encoded stream, handing fn each cycle's usage vector
// in cycle order. Only the slow paths use it. The stream was fully
// parsed when the view was built and is immutable, so a read error here
// is a bug, not bad input.
func (p *Packed) scan(fn func(u *cpu.Usage)) {
	rd, err := NewReader(bytes.NewReader(p.data))
	for err == nil {
		var u *cpu.Usage
		if _, u, err = rd.Next(); err == nil {
			fn(u)
		}
	}
	if err != io.EOF {
		panic("usagetrace: re-reading a decoded trace failed: " + err.Error())
	}
}

// planeWhere builds, in one pass over the encoded stream, the plane of
// cycles whose usage vector satisfies pred.
func (p *Packed) planeWhere(pred func(u *cpu.Usage) bool) []uint64 {
	plane := make([]uint64, p.words)
	p.scan(func(u *cpu.Usage) {
		if pred(u) {
			plane[u.Cycle>>6] |= 1 << (u.Cycle & 63)
		}
	})
	return plane
}

// Cycles returns the decoded cycle count.
func (p *Packed) Cycles() uint64 { return p.cycles }

// BackLatchStages returns the trace's gatable back-end latch stage count
// (the number of latch planes).
func (p *Packed) BackLatchStages() int { return p.stages }

// Words returns the per-plane word count, (Cycles+63)/64.
func (p *Packed) Words() int { return p.words }

// FUBusyPlane returns the plane with bit c set when FU pool t had any
// busy unit at cycle c.
func (p *Packed) FUBusyPlane(t cpu.FUType) []uint64 { return p.fuBusy[t] }

// DPortUsePlane returns the plane with bit c set when any D-cache port
// was used at cycle c.
func (p *Packed) DPortUsePlane() []uint64 { return p.dportUse }

// LatchNonZeroPlane returns the plane with bit c set when back-end latch
// stage s carried any instruction at cycle c.
func (p *Packed) LatchNonZeroPlane(s int) []uint64 { return p.latchNZ[s] }

// IssueNonEmptyPlane returns the plane with bit c set when any
// instruction issued at cycle c.
func (p *Packed) IssueNonEmptyPlane() []uint64 { return p.issueNE }

// CommitNonEmptyPlane returns the plane with bit c set when any
// instruction committed at cycle c.
func (p *Packed) CommitNonEmptyPlane() []uint64 { return p.commitNE }

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
// cap) — a bus-gating scheme's enabled driver-cycles under issue width
// cap. The histogram's overflow bucket lumps counts >= 64 together, so
// the sum is exact only for cap <= 64 (or when no cycle overflowed);
// otherwise ok is false and the caller must fall back to scalar replay.
func (p *Packed) BusSchedCappedSum(limit int) (sum int64, ok bool) {
	if limit > busHistMax && p.busSchedHist[busHistMax] != 0 {
		return 0, false
	}
	for b, cnt := range p.busSchedHist {
		if cnt == 0 {
			continue
		}
		on := int64(b)
		if on > int64(limit) {
			on = int64(limit)
		}
		sum += on * cnt
	}
	return sum, true
}

// BackLatchSum returns the summed back-end latch occupancy over all
// stages and cycles — a latch-gating scheme's enabled slot-cycles.
func (p *Packed) BackLatchSum() int64 { return p.backLatchSum }

// HasLatchValue reports whether the trace carried the latchvalue channel,
// i.e. whether the latch value-change planes and sums below are populated.
func (p *Packed) HasLatchValue() bool { return p.latchValNZ != nil }

// LatchValueChangePlane returns the plane with bit c set when back-end
// latch stage s carried any value-changing instruction at cycle c, or nil
// when the trace has no latchvalue channel.
func (p *Packed) LatchValueChangePlane(s int) []uint64 {
	if p.latchValNZ == nil {
		return nil
	}
	return p.latchValNZ[s]
}

// BackLatchNewValSum returns the summed value-change slot count over all
// stages and cycles — a value-dependent latch-gating scheme's enabled
// slot-cycles. ok is false when the trace has no latchvalue channel.
func (p *Packed) BackLatchNewValSum() (sum int64, ok bool) {
	if p.latchValNZ == nil {
		return 0, false
	}
	return p.backLatchNewValSum, true
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
// tail; a front end deeper than the tail re-reads the stream.
func (p *Packed) FrontSlotsSum(depth int) int64 {
	if depth <= 0 {
		return 0
	}
	sum := int64(depth) * p.fetchSum
	n := p.cycles
	tail := min(uint64(depth-1), n)
	if tail > fetchTailLen {
		p.scan(func(u *cpu.Usage) {
			if k := n - u.Cycle; k <= tail {
				sum -= int64(uint64(depth)-k) * int64(u.FetchCount)
			}
		})
		return sum
	}
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
// trace the core captured, making them free in the common case — and
// otherwise builds its plane from one pass over the encoded stream.

// OverFullUnits returns the plane of cycles where some FU pool's busy
// mask escaped even the all-enabled mask for the given pool sizes.
func (p *Packed) OverFullUnits(counts [cpu.NumFUTypes]int) []uint64 {
	var enabled [cpu.NumFUTypes]uint32
	possible := false
	for t := range enabled {
		enabled[t] = maskN(counts[t])
		if p.busyOr[t]&^enabled[t] != 0 {
			possible = true
		}
	}
	if !possible {
		return nil
	}
	return p.planeWhere(func(u *cpu.Usage) bool {
		return u.IntALUBusy&^enabled[cpu.FUIntALU] != 0 ||
			u.IntMultBusy&^enabled[cpu.FUIntMult] != 0 ||
			u.FPALUBusy&^enabled[cpu.FUFPALU] != 0 ||
			u.FPMultBusy&^enabled[cpu.FUFPMult] != 0
	})
}

// OverFullDPorts returns the plane of cycles using more D-cache ports
// than the machine has.
func (p *Packed) OverFullDPorts(ports int) []uint64 {
	if p.maxDPort <= ports {
		return nil
	}
	return p.planeWhere(func(u *cpu.Usage) bool { return u.DPortUsed > ports })
}

// OverFullBus returns the plane of cycles driving more result buses than
// the issue width.
func (p *Packed) OverFullBus(width int) []uint64 {
	if p.maxBus <= width {
		return nil
	}
	return p.planeWhere(func(u *cpu.Usage) bool { return u.ResultBus > width })
}

// OverFullLatch returns the plane of cycles where some back-end latch
// stage carried more instructions than the issue width.
func (p *Packed) OverFullLatch(width int) []uint64 {
	if p.maxLatch <= width {
		return nil
	}
	return p.planeWhere(func(u *cpu.Usage) bool {
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
