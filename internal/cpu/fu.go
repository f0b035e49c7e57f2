package cpu

import (
	"dcg/internal/config"
	"dcg/internal/isa"
)

// FUType identifies an execution unit pool.
type FUType int

// Execution unit pools (Table 1: 6 integer ALUs, 2 integer mult/div,
// 4 FP ALUs, 4 FP mult/div).
const (
	FUIntALU FUType = iota
	FUIntMult
	FUFPALU
	FUFPMult
	NumFUTypes
)

var fuTypeNames = [...]string{"int-alu", "int-mult", "fp-alu", "fp-mult"}

// String returns the pool name.
func (t FUType) String() string {
	if int(t) < len(fuTypeNames) {
		return fuTypeNames[t]
	}
	return "fu?"
}

// FUTypeFor maps an operation class to its execution unit pool.
// Loads and stores use the LSQ address path and D-cache ports rather than
// an execution unit; control and integer ops share the integer ALUs;
// divides run on the multiplier pools (the units are combined mult/div
// units, as in Table 1).
func FUTypeFor(c isa.OpClass) (FUType, bool) {
	switch c {
	case isa.ClassIntALU, isa.ClassBranch, isa.ClassJump:
		return FUIntALU, true
	case isa.ClassIntMult, isa.ClassIntDiv:
		return FUIntMult, true
	case isa.ClassFPALU:
		return FUFPALU, true
	case isa.ClassFPMult, isa.ClassFPDiv:
		return FUFPMult, true
	default:
		return 0, false
	}
}

// poolHorizon is the per-pool usage schedule depth. config.Validate holds
// every FU latency to the ring's reach (config.MaxFULatency), so a
// booking never wraps onto a slot still to be read.
const poolHorizon = config.FUPoolHorizon

// fuPool is a pool of identical units with the sequential priority policy
// of section 3.1: among units of the same type, the lowest-index free unit
// is always selected, so low-index units stay busy (ungated) and
// high-index units stay idle (gated), minimising gating-control toggling.
//
// Allocation uses per-unit busyUntil times (a unit runs one op at a time);
// accounting uses a cycle-indexed usage schedule, because a unit may be
// re-reserved for a future op before its current busy interval has been
// observed.
type fuPool struct {
	busyUntil []uint64            // per-unit exclusive end of reservation
	sched     [poolHorizon]uint32 // busy bitmask per future cycle

	// roundRobin rotates the scan start (ablation of the sequential
	// priority policy); rrNext is the next starting index.
	roundRobin bool
	rrNext     int
}

func newFUPool(n int) fuPool {
	if n > config.MaxPoolUnits {
		panic("cpu: FU pool larger than config.MaxPoolUnits") // config.Validate rejects it
	}
	return fuPool{busyUntil: make([]uint64, n)}
}

// acquire reserves the lowest-index free unit for [start, start+lat).
// enabled limits selection to units [0, enabled) — PLB disables units from
// the high-index end. It returns the unit index, or -1 when no unit is
// available.
func (p *fuPool) acquire(start uint64, lat int, enabled int) int {
	if enabled > len(p.busyUntil) {
		enabled = len(p.busyUntil)
	}
	for k := 0; k < enabled; k++ {
		i := k
		if p.roundRobin && enabled > 0 {
			i = (p.rrNext + k) % enabled
		}
		if p.busyUntil[i] <= start {
			p.busyUntil[i] = start + uint64(lat)
			bit := uint32(1) << uint(i)
			for c := start; c < start+uint64(lat); c++ {
				p.sched[c%poolHorizon] |= bit
			}
			if p.roundRobin {
				p.rrNext = (i + 1) % enabled
			}
			return i
		}
	}
	return -1
}

// busyMask returns a bitmask of units actively computing in cycle c.
func (p *fuPool) busyMask(c uint64) uint32 { return p.sched[c%poolHorizon] }

// busyCount returns the number of units actively computing in cycle c.
func (p *fuPool) busyCount(c uint64) int {
	n := 0
	for m := p.sched[c%poolHorizon]; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// retire clears cycle c's schedule slot once it has been observed.
func (p *fuPool) retire(c uint64) { p.sched[c%poolHorizon] = 0 }

// latencies resolves operation latency per class from the configuration.
type latencies struct {
	tbl [isa.NumClasses]int
}

func newLatencies(fu config.FUConfig) latencies {
	var l latencies
	l.tbl[isa.ClassIntALU] = fu.IntALULat
	l.tbl[isa.ClassBranch] = fu.IntALULat
	l.tbl[isa.ClassJump] = fu.IntALULat
	l.tbl[isa.ClassIntMult] = fu.IntMultLat
	l.tbl[isa.ClassIntDiv] = fu.IntDivLat
	l.tbl[isa.ClassFPALU] = fu.FPALULat
	l.tbl[isa.ClassFPMult] = fu.FPMultLat
	l.tbl[isa.ClassFPDiv] = fu.FPDivLat
	l.tbl[isa.ClassNop] = 1
	l.tbl[isa.ClassSyscall] = 1
	// Loads/stores: address generation takes one cycle; the cache access
	// latency is added when the access is timed.
	l.tbl[isa.ClassLoad] = 1
	l.tbl[isa.ClassStore] = 1
	return l
}

func (l *latencies) of(c isa.OpClass) int { return l.tbl[c] }
