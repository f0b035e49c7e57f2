package cpu

// Usage is the per-cycle structure usage vector the core reports to its
// observers. The power model charges components from it; the gating
// schemes' decisions are checked against it. Buffers are reused between
// cycles: observers must not retain the pointer or the slices.
type Usage struct {
	// Cycle is the cycle this vector describes.
	Cycle uint64

	// IssueCount is the number of instructions selected this cycle
	// (the popcount of the paper's one-hot issue encoding).
	IssueCount int

	// FPIssueCount is the number of floating-point instructions selected
	// this cycle (PLB's secondary trigger input).
	FPIssueCount int

	// MemIssueCount is the number of loads/stores selected this cycle.
	MemIssueCount int

	// Per-pool bitmasks of execution units actively computing this cycle.
	IntALUBusy  uint32
	IntMultBusy uint32
	FPALUBusy   uint32
	FPMultBusy  uint32

	// DPortUsed is the number of D-cache ports performing an access this
	// cycle (each active port exercises its wordline decoder).
	DPortUsed int

	// BackLatch[s] is the number of issue slots flowing through gatable
	// pipeline latch stage s this cycle. Stage 0 is the rename latch;
	// stages 1.. are the register-read, execute, memory, writeback (and
	// any extra deep-pipeline back-end) latches, fed by the issue one-hot
	// encoding delayed s cycles.
	BackLatch []int

	// BackLatchNewVal[s] is the number of BackLatch[s] slots whose
	// architectural value differs from the value the same latch slot held
	// on its previous use — the slots a data-dependent (value-comparing)
	// gating scheme must clock. Always BackLatchNewVal[s] <= BackLatch[s];
	// slots carrying a repeated value need no clock edge. Captured in the
	// optional "latchvalue" trace channel.
	BackLatchNewVal []int

	// ResultBus is the number of result buses driven this cycle.
	ResultBus int

	// CommitCount is the number of instructions retired this cycle.
	CommitCount int

	// FetchCount is the number of instructions fetched this cycle (the
	// front-end latch flow; not deterministically known in advance, so
	// DCG cannot use it — the Oracle headroom scheme does).
	FetchCount int

	// WindowOccupancy is the number of valid window (issue queue / ROB)
	// entries this cycle. Empty entries are deterministically known to be
	// empty — the observation prior work [6] gates the issue queue with.
	WindowOccupancy int
}

// FUBusy returns the busy mask for the given pool.
func (u *Usage) FUBusy(t FUType) uint32 {
	switch t {
	case FUIntALU:
		return u.IntALUBusy
	case FUIntMult:
		return u.IntMultBusy
	case FUFPALU:
		return u.FPALUBusy
	default:
		return u.FPMultBusy
	}
}

// Observer consumes per-cycle usage vectors.
type Observer interface {
	OnCycle(u *Usage)
}

// QuietObserver is an Observer that takes a run of quiet cycles at once.
// When the core fast-forwards (Core.Run), OnQuiet stands for n OnCycle
// calls for cycles u.Cycle, u.Cycle+1, ..., each with usage u: nothing
// but the cycle number differs. It must leave u as it was handed in. An
// observer without the method gets the n OnCycle calls.
type QuietObserver interface {
	OnQuiet(u *Usage, n uint64)
}

// ObserveQuiet hands o a run of n cycles from u.Cycle, each with usage u:
// in one OnQuiet call when o takes runs, as n OnCycle calls otherwise.
func ObserveQuiet(o Observer, u *Usage, n uint64) {
	if q, ok := o.(QuietObserver); ok {
		q.OnQuiet(u, n)
		return
	}
	first := u.Cycle
	for ; u.Cycle < first+n; u.Cycle++ {
		o.OnCycle(u)
	}
	u.Cycle = first
}

// IssueEvent describes one instruction selection, delivered to gating
// schemes at the end of the cycle in which the issue-stage selection logic
// produced the corresponding GRANT signal. Everything in the event is
// deterministically known at that point (the paper's key observation);
// fields describing future cycles therefore constitute legitimate advance
// knowledge for clock-gate control set-up.
type IssueEvent struct {
	// Cycle is the select cycle (cycle X in the paper's figures).
	Cycle uint64

	// FUType/FUIdx identify the granted execution unit; FUIdx is -1 for
	// loads and stores, which use no execution unit in this model.
	FUType FUType
	FUIdx  int

	// FUStart/FULat give the unit's busy interval [FUStart, FUStart+FULat).
	// FUStart is X+2: selected instructions execute two cycles after
	// selection (Figure 6).
	FUStart uint64
	FULat   int

	// IsLoad/IsStore mark D-cache users; DPortCycle is the cycle the
	// access uses a port and its wordline decoder (X+3 for loads;
	// X+3 or X+4 for stores depending on Config.StoreDelayPolicy).
	IsLoad     bool
	IsStore    bool
	DPortCycle uint64

	// WritesReg marks result-bus users; ResultBusCycle is the writeback
	// cycle in which the result bus is driven.
	WritesReg      bool
	ResultBusCycle uint64
}

// IssueListener receives issue events (gating schemes implement this).
type IssueListener interface {
	OnIssue(ev IssueEvent)
}

// Limits is the per-cycle resource restriction a Throttle imposes on the
// core. The baseline and DCG impose none; PLB throttles issue width and
// disables units/ports in its low-power modes.
type Limits struct {
	// IssueWidth is the maximum instructions selected this cycle.
	IssueWidth int

	// DPorts is the number of usable D-cache ports.
	DPorts int

	// Enabled unit counts per pool (units [0, n) are usable; the
	// sequential-priority policy makes high-index units the idle ones, so
	// PLB disables from the top).
	IntALU, IntMult, FPALU, FPMult int
}

// CycleFeedback reports the previous cycle's issue activity to the
// Throttle (PLB's IPC/FP-IPC window statistics are built from it).
type CycleFeedback struct {
	Issued    int
	FPIssued  int
	MemIssued int
}

// Throttle decides the resource limits for each cycle.
type Throttle interface {
	Limits(cycle uint64, fb CycleFeedback) Limits
}

// QuietThrottle is a Throttle the core may fast-forward under. QuietLimits
// stands for up to n Limits calls, for cycles cycle, cycle+1, ..., each
// with zero feedback, and returns how many it took: it stops before a call
// whose effect a later cycle could see, such as PLB's window decision. The
// core does not read the limits of the calls it took; nothing issues in a
// quiet cycle as long as each would allow at least one issue slot. The
// core fast-forwards only under a throttle that implements this.
type QuietThrottle interface {
	QuietLimits(cycle, n uint64) uint64
}

// FullLimits returns the unthrottled limits for a configuration.
func FullLimits(issueWidth, dports, intALU, intMult, fpALU, fpMult int) Limits {
	return Limits{
		IssueWidth: issueWidth,
		DPorts:     dports,
		IntALU:     intALU,
		IntMult:    intMult,
		FPALU:      fpALU,
		FPMult:     fpMult,
	}
}

// fixedThrottle always returns the same limits (baseline behaviour).
type fixedThrottle struct{ l Limits }

// Limits implements Throttle.
func (f fixedThrottle) Limits(uint64, CycleFeedback) Limits { return f.l }

// QuietLimits implements QuietThrottle: fixed limits take any run.
func (f fixedThrottle) QuietLimits(_, n uint64) uint64 { return n }

// NewFixedThrottle builds a Throttle that never restricts the core.
func NewFixedThrottle(l Limits) Throttle { return fixedThrottle{l} }
