// Package cpu implements the cycle-level out-of-order superscalar core of
// Table 1: 8-wide fetch/issue/commit, a 128-entry instruction window,
// a 64-entry load/store queue, the Table 1 functional unit pool with
// sequential-priority selection, a 2-level branch predictor with BTB and
// RAS, and the Table 1 memory hierarchy. The pipeline follows Figure 3
// (fetch, decode, rename, issue, register read, execute, memory,
// writeback) and supports the deeper variants of section 5.6.
//
// The core is execution-driven over an oracle instruction stream
// (trace.Source): instructions carry resolved branch outcomes and
// effective addresses, and the core models all timing around them —
// front-end redirects on mispredictions, cache-miss latencies, window/LSQ
// occupancy, and structural hazards. Wrong-path instructions are modelled
// as front-end bubbles (fetch stalls until the mispredicted branch
// resolves), the standard trace-driven simplification.
//
// Every cycle the core publishes a Usage vector (which structures were
// used) and IssueEvents (the selection logic's GRANT signals plus their
// deterministically known future timing), from which the power model and
// the clock-gating schemes operate. A run of quiet cycles, in which nothing
// can change, is fast-forwarded and published at once to observers that
// take runs (QuietObserver).
package cpu

import (
	"fmt"

	"dcg/internal/bpred"
	"dcg/internal/config"
	"dcg/internal/isa"
	"dcg/internal/mem"
	"dcg/internal/trace"
)

// horizon is the scheduling ring-buffer length; it must exceed the longest
// possible issue-to-writeback distance. The worst case is a load queued
// behind the MSHR file's share of a full LSQ of misses; config.Validate
// derives that distance and refuses a machine whose distance reaches the
// horizon (917 cycles on the Table 1 machine). The issue path still
// asserts the bound, as an internal invariant.
const horizon = config.SchedHorizon

// Entry states.
const (
	stFree uint8 = iota
	stDispatched
	stIssued
)

// robEntry is one instruction window entry.
type robEntry struct {
	dyn   trace.DynInst
	state uint8
	isMem bool
	fpOp  bool

	// Operand tracking: producer window index + sequence (the seq guards
	// against window-slot reuse). A producer index of -1 means the operand
	// is architecturally ready.
	src1Idx, src2Idx int32
	src1Seq, src2Seq uint64

	// readyTime is the first cycle a dependent may begin executing
	// (producer's completion). Valid once issued.
	readyTime uint64

	// doneTime is the cycle the instruction is eligible to commit.
	doneTime uint64

	mispred bool
}

// frontEntry is an instruction in flight in the front end.
type frontEntry struct {
	dyn      trace.DynInst
	eligible uint64 // earliest dispatch (into the window) cycle
	mispred  bool
}

// Stats aggregates the run's performance and utilisation statistics.
type Stats struct {
	Cycles       uint64
	Committed    uint64
	Fetched      uint64
	Issued       uint64
	ClassIssued  [isa.NumClasses]uint64
	Mispredicts  uint64
	CondBranches uint64
	CondCorrect  uint64
	IssueCycles  uint64 // cycles in which at least one instruction issued

	// Stall accounting (cycles).
	StallResolve   uint64 // fetch stalled waiting for mispredict resolution
	StallICache    uint64 // fetch stalled on I-cache miss
	StallFrontFull uint64 // fetch stalled on front-end backpressure
	RobEmpty       uint64 // cycles with an empty window
	RobFullStall   uint64 // dispatch blocked by a full window
	LSQFullStall   uint64 // dispatch blocked by a full LSQ

	// Issue-blocking accounting (entry-cycle events).
	BlockOperand uint64 // candidate waiting on operands
	BlockFU      uint64 // candidate blocked by unit structural hazard
	BlockPort    uint64 // candidate blocked by D-port budget

	// Distributions: issue-group sizes and window occupancy, for CPI
	// analysis (bucket width 1; occupancy histogram has one bucket per
	// 8 entries).
	IssueSizeHist [16]uint64 // [issued instructions per cycle]
	OccupancyHist [17]uint64 // [window occupancy / 8]

	// Usage integrals (component-cycles of activity).
	FUBusyCycles  [NumFUTypes]uint64
	DPortCycles   uint64
	LatchSlotFlow uint64 // total slot-cycles flowing through gatable latches
	LatchStages   int
	ResultBusBusy uint64
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// Core is the out-of-order processor core.
type Core struct {
	cfg  config.Config
	src  trace.Source
	pred *bpred.Predictor
	hier *mem.Hierarchy
	lat  latencies

	throttle Throttle
	observer Observer
	issueLis IssueListener

	// quietThrottle is throttle when it takes runs of quiet cycles, nil
	// otherwise (then Run steps every cycle).
	quietThrottle QuietThrottle

	// quiet reports that the last stepped cycle was quiet: nothing issued,
	// committed, dispatched or fetched, and no unit, D-cache port, result
	// bus or back-end latch was in use. Run then tries to fast-forward.
	quiet bool

	// Window (ROB).
	rob      []robEntry
	robHead  int
	robCount int

	// waiting is the issue queue: the window indices of dispatched,
	// not-yet-issued entries, oldest first. dispatch appends, issue
	// removes what it selects; issued entries waiting only to commit are
	// never visited by select.
	waiting []int32

	// LSQ occupancy.
	lsqCount int

	// Rename map: architectural register -> producing window entry.
	intProd [isa.NumIntRegs]int32
	fpProd  [isa.NumFPRegs]int32
	intSeq  [isa.NumIntRegs]uint64
	fpSeq   [isa.NumFPRegs]uint64

	// Front-end pipe (fetched, pre-dispatch): a fixed ring of frontCap
	// entries. fetch writes at (frontHead+frontLen)%frontCap, dispatch
	// consumes at frontHead. A ring instead of an append/shrink slice
	// keeps the drain-refill cycle allocation-free (the old slice was
	// re-grown from nil several times per cycle — ~8.3k allocations per
	// 60k-inst run, 99% of the simulation's total).
	front     []frontEntry
	frontCap  int
	frontHead int
	frontLen  int

	// Functional units.
	pools [NumFUTypes]fuPool

	// Fetch state.
	fetchResume    uint64 // no fetch before this cycle
	waitingResolve bool   // fetch stopped until a mispredicted ctrl resolves
	pendingSeq     uint64 // seq of the mispredicted ctrl being waited on
	lastFetchLine  uint64
	fetchLineShift uint
	extraRedirect  int
	streamDone     bool
	nextInst       trace.DynInst
	nextValid      bool

	// Future usage schedules (cycle & (horizon-1)).
	dportSched [horizon]int
	busSched   [horizon]int
	issueHist  [horizon]int // issue counts, for latch-flow delays

	// Value-change tracking for the latchvalue channel: each issue /
	// dispatch lane remembers the last architectural value it carried, and
	// the per-cycle count of lanes whose value changed flows down the
	// back-end stages exactly like the issue one-hot (issueNewValHist
	// mirrors issueHist).
	issueLaneVal    []uint64
	dispLaneVal     []uint64
	issueNewValHist [horizon]int

	// Per-cycle feedback for the throttle.
	lastFeedback CycleFeedback

	// cancel, when non-nil, is polled every cancelInterval cycles; a
	// non-nil return aborts the run (context cancellation / timeouts).
	cancel func() error

	usage Usage
	stats Stats

	cycle uint64
}

// cancelInterval is how often (in cycles, a power of two) Run polls the
// cancellation check. Coarse enough to stay off the per-cycle hot path,
// fine enough that a canceled simulation stops within microseconds.
const cancelInterval = 4096

// New builds a core over the given source with the given throttle (nil
// means unthrottled). observer and issueLis may be nil.
func New(cfg config.Config, src trace.Source) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pred, err := bpred.New(cfg.BPred)
	if err != nil {
		return nil, err
	}
	hier, err := mem.NewHierarchy(cfg)
	if err != nil {
		return nil, err
	}
	c := &Core{
		cfg:  cfg,
		src:  src,
		pred: pred,
		hier: hier,
		lat:  newLatencies(cfg.FU),
		rob:  make([]robEntry, cfg.WindowSize),
	}
	c.waiting = make([]int32, 0, cfg.WindowSize)
	c.pools[FUIntALU] = newFUPool(cfg.FU.IntALU)
	c.pools[FUIntMult] = newFUPool(cfg.FU.IntMult)
	c.pools[FUFPALU] = newFUPool(cfg.FU.FPALU)
	c.pools[FUFPMult] = newFUPool(cfg.FU.FPMult)
	if cfg.FUSelection == config.SelectRoundRobin {
		for t := range c.pools {
			c.pools[t].roundRobin = true
		}
	}
	// Front-end capacity: one fetch group per front-end stage.
	frontDepth := 2 + cfg.Pipeline.ExtraFrontEnd // decode + rename + extras
	c.frontCap = (frontDepth + 1) * cfg.IssueWidth
	c.front = make([]frontEntry, c.frontCap)
	c.extraRedirect = cfg.BPred.MispredictPenaly - frontDepth - 3
	if c.extraRedirect < 0 {
		c.extraRedirect = 0
	}
	for i := range c.intProd {
		c.intProd[i] = -1
	}
	for i := range c.fpProd {
		c.fpProd[i] = -1
	}
	c.usage.BackLatch = make([]int, cfg.BackEndLatchStages())
	c.usage.BackLatchNewVal = make([]int, cfg.BackEndLatchStages())
	c.issueLaneVal = make([]uint64, cfg.IssueWidth)
	c.dispLaneVal = make([]uint64, cfg.IssueWidth)
	c.stats.LatchStages = cfg.BackEndLatchStages()
	for 1<<c.fetchLineShift < cfg.IL1.LineBytes {
		c.fetchLineShift++
	}
	c.lastFetchLine = ^uint64(0)
	c.SetThrottle(nil)
	return c, nil
}

func (c *Core) fullLimits() Limits {
	return FullLimits(c.cfg.IssueWidth, c.cfg.DL1.Ports,
		c.cfg.FU.IntALU, c.cfg.FU.IntMult, c.cfg.FU.FPALU, c.cfg.FU.FPMult)
}

// SetThrottle installs a width/resource throttle (PLB). Must be called
// before Run.
func (c *Core) SetThrottle(t Throttle) {
	if t == nil {
		t = NewFixedThrottle(c.fullLimits())
	}
	c.throttle = t
	c.quietThrottle, _ = t.(QuietThrottle)
}

// SetObserver installs the per-cycle usage observer.
func (c *Core) SetObserver(o Observer) { c.observer = o }

// SetCancel installs a cancellation check (typically context.Context.Err)
// polled every cancelInterval cycles by Run and Warm. A non-nil return
// aborts the simulation with that error. Must be set before Run.
func (c *Core) SetCancel(check func() error) { c.cancel = check }

// SetIssueListener installs the issue-event (GRANT signal) listener.
func (c *Core) SetIssueListener(l IssueListener) { c.issueLis = l }

// Stats returns the accumulated statistics.
func (c *Core) Stats() *Stats { return &c.stats }

// Hierarchy exposes the memory system (for miss-rate reporting).
func (c *Core) Hierarchy() *mem.Hierarchy { return c.hier }

// Predictor exposes the branch predictor (for accuracy reporting).
func (c *Core) Predictor() *bpred.Predictor { return c.pred }

// Config returns the core's configuration.
func (c *Core) Config() config.Config { return c.cfg }

// Warm performs a functional warm-up pass: it streams n instructions from
// src through the caches and branch predictor without timing them, then
// clears all statistics. This stands in for the paper's 2-billion
// instruction fast-forward, so the measured region starts with warm
// structures. It returns how many instructions it streamed: fewer than n
// when src ran dry or the cancellation check fired.
func (c *Core) Warm(src trace.Source, n uint64) uint64 {
	var lastLine uint64 = ^uint64(0)
	var i uint64
	for ; i < n; i++ {
		if c.cancel != nil && i&(cancelInterval-1) == 0 && c.cancel() != nil {
			break // Run will surface the cancellation error immediately
		}
		d, ok := src.Next()
		if !ok {
			break
		}
		if line := d.PC >> c.fetchLineShift; line != lastLine {
			c.hier.FetchLatency(d.PC)
			lastLine = line
		}
		if d.IsMem() {
			c.hier.DataLatency(d.EA, d.Inst.Class() == isa.ClassStore)
		}
		if d.IsCtrl() {
			c.predictAndTrain(&d)
		}
	}
	c.resetWarmStats()
	return i
}

// Restore puts the core in the state Warm left another core in: it copies
// hier's caches and pred into this core's own, which must be configured
// alike, then clears the statistics as Warm does. Warm changes nothing
// else in a core, so a restored core runs exactly as the warmed one would.
func (c *Core) Restore(hier *mem.Hierarchy, pred *bpred.Predictor) {
	c.hier.CopyCaches(hier)
	c.pred.CopyFrom(pred)
	c.resetWarmStats()
}

// resetWarmStats clears what a warm-up counted: the core's statistics, the
// predictor's counters and the caches' access counts.
func (c *Core) resetWarmStats() {
	c.stats = Stats{LatchStages: c.cfg.BackEndLatchStages()}
	c.pred.ResetStats()
	c.hier.ResetStats()
}

// Run simulates until the source is exhausted and the pipeline drains, or
// maxCycles elapses (0 = no limit). It returns the cycle count.
//
// After a quiet cycle Run fast-forwards to the next cycle at which anything
// can change (skipQuiet), counting the skipped cycles' statistics in bulk
// and handing them to the observer as one run. Every statistic and every
// usage vector is the one stepping each cycle would have produced.
func (c *Core) Run(maxCycles uint64) (uint64, error) {
	for {
		if maxCycles > 0 && c.cycle >= maxCycles {
			return c.cycle, fmt.Errorf("cpu: cycle limit %d reached with %d committed", maxCycles, c.stats.Committed)
		}
		if c.cancel != nil && c.cycle&(cancelInterval-1) == 0 {
			if err := c.cancel(); err != nil {
				c.stats.Cycles = c.cycle
				return c.cycle, fmt.Errorf("cpu: canceled at cycle %d with %d committed: %w",
					c.cycle, c.stats.Committed, err)
			}
		}
		if c.streamDone && c.robCount == 0 && c.frontLen == 0 && !c.nextValid {
			break
		}
		if c.quiet && c.skipQuiet(maxCycles) {
			continue
		}
		c.step()
	}
	c.stats.Cycles = c.cycle
	return c.cycle, nil
}

// step advances the machine one cycle.
func (c *Core) step() {
	cyc := c.cycle
	limits := c.throttle.Limits(cyc, c.lastFeedback)

	if c.robCount == 0 {
		c.stats.RobEmpty++
	}
	committed := c.commit(cyc)
	issued, fpIssued, memIssued, issueNewVal := c.issue(cyc, limits)
	renamed, dispNewVal := c.dispatch(cyc)
	fetchedBefore := c.stats.Fetched
	c.fetch(cyc)
	fetchedNow := int(c.stats.Fetched - fetchedBefore)

	// Assemble the usage vector.
	u := &c.usage
	u.Cycle = cyc
	u.IssueCount = issued
	u.FPIssueCount = fpIssued
	u.MemIssueCount = memIssued
	u.IntALUBusy = c.pools[FUIntALU].busyMask(cyc)
	u.IntMultBusy = c.pools[FUIntMult].busyMask(cyc)
	u.FPALUBusy = c.pools[FUFPALU].busyMask(cyc)
	u.FPMultBusy = c.pools[FUFPMult].busyMask(cyc)
	u.DPortUsed = c.dportSched[cyc&(horizon-1)]
	u.ResultBus = c.busSched[cyc&(horizon-1)]
	if u.ResultBus > c.cfg.IssueWidth {
		u.ResultBus = c.cfg.IssueWidth
	}
	u.CommitCount = committed
	u.FetchCount = fetchedNow
	u.WindowOccupancy = c.robCount

	// Latch flows: stage 0 (rename latch) carries this cycle's renamed
	// instructions; stage s >= 1 carries the issue one-hot delayed s
	// cycles.
	u.BackLatch[0] = renamed
	u.BackLatchNewVal[0] = dispNewVal
	for s := 1; s < len(u.BackLatch); s++ {
		if cyc >= uint64(s) {
			u.BackLatch[s] = c.issueHist[(cyc-uint64(s))&(horizon-1)]
			u.BackLatchNewVal[s] = c.issueNewValHist[(cyc-uint64(s))&(horizon-1)]
		} else {
			u.BackLatch[s] = 0
			u.BackLatchNewVal[s] = 0
		}
	}

	// Usage integrals.
	c.stats.FUBusyCycles[FUIntALU] += uint64(c.pools[FUIntALU].busyCount(cyc))
	c.stats.FUBusyCycles[FUIntMult] += uint64(c.pools[FUIntMult].busyCount(cyc))
	c.stats.FUBusyCycles[FUFPALU] += uint64(c.pools[FUFPALU].busyCount(cyc))
	c.stats.FUBusyCycles[FUFPMult] += uint64(c.pools[FUFPMult].busyCount(cyc))
	c.stats.DPortCycles += uint64(u.DPortUsed)
	c.stats.ResultBusBusy += uint64(u.ResultBus)
	latchFlow := 0
	for _, f := range u.BackLatch {
		latchFlow += f
	}
	c.stats.LatchSlotFlow += uint64(latchFlow)
	// BackLatch[0] is this cycle's dispatch count, so latchFlow == 0 also
	// says nothing dispatched.
	c.quiet = issued == 0 && committed == 0 && fetchedNow == 0 && latchFlow == 0 &&
		u.IntALUBusy|u.IntMultBusy|u.FPALUBusy|u.FPMultBusy == 0 &&
		u.DPortUsed == 0 && u.ResultBus == 0

	if c.observer != nil {
		c.observer.OnCycle(u)
	}

	// Clear consumed schedule slots and record issue history.
	c.dportSched[cyc&(horizon-1)] = 0
	c.busSched[cyc&(horizon-1)] = 0
	c.issueHist[cyc&(horizon-1)] = issued
	c.issueNewValHist[cyc&(horizon-1)] = issueNewVal
	for t := range c.pools {
		c.pools[t].retire(cyc)
	}

	if issued > 0 {
		c.stats.IssueCycles++
	}
	if issued < len(c.stats.IssueSizeHist) {
		c.stats.IssueSizeHist[issued]++
	}
	if b := c.robCount / 8; b < len(c.stats.OccupancyHist) {
		c.stats.OccupancyHist[b]++
	}
	c.lastFeedback = CycleFeedback{Issued: issued, FPIssued: fpIssued, MemIssued: memIssued}
	c.cycle++
}

// skipQuiet fast-forwards from c.cycle, the cycle after a quiet one, to the
// next cycle at which anything can change, and reports whether it moved.
// Each skipped cycle would have stepped to the same quiet usage vector as
// the one before it (only Cycle differs) and counted the same stalls, so
// the run's statistics are applied in bulk and the observer gets it as one
// run. The skip never starts on, or runs past, a cancellation poll, and
// never runs past maxCycles; the next cycle is stepped either way.
func (c *Core) skipQuiet(maxCycles uint64) bool {
	c.quiet = false
	now := c.cycle
	if c.quietThrottle == nil || now&(cancelInterval-1) == 0 {
		return false
	}
	next := (now | (cancelInterval - 1)) + 1
	if maxCycles > 0 {
		next = min(next, maxCycles)
	}

	// Fetch must stay stalled: on a misprediction, an I-cache miss or a
	// full front end. Each stall keeps counting as it did this cycle.
	var fetchStall *uint64
	switch {
	case c.streamDone:
	case c.waitingResolve:
		fetchStall = &c.stats.StallResolve
	case now < c.fetchResume:
		fetchStall = &c.stats.StallICache
		next = min(next, c.fetchResume)
	case c.frontLen >= c.frontCap:
		fetchStall = &c.stats.StallFrontFull
	default:
		return false
	}
	// Dispatch must stay blocked: its head not yet eligible, or held by a
	// full window or LSQ.
	var dispatchStall *uint64
	if c.frontLen > 0 {
		fe := &c.front[c.frontHead]
		switch {
		case fe.eligible > now:
			next = min(next, fe.eligible)
		case c.robCount >= len(c.rob):
			dispatchStall = &c.stats.RobFullStall
		case fe.dyn.IsMem() && c.lsqCount >= c.cfg.LSQSize:
			dispatchStall = &c.stats.LSQFullStall
		default:
			return false
		}
	}
	// Commit waits for the window's head to complete.
	if c.robCount > 0 {
		if h := &c.rob[c.robHead]; h.state == stIssued {
			next = min(next, h.doneTime)
		}
	}
	// Issue waits for the first waiting entry whose operands come ready;
	// one waiting on an unissued producer waits for that producer's issue.
	for _, qi := range c.waiting {
		e := &c.rob[qi]
		r1, ok1 := c.readyAt(e.src1Idx, e.src1Seq)
		r2, ok2 := c.readyAt(e.src2Idx, e.src2Seq)
		if !ok1 || !ok2 {
			continue
		}
		// An entry selected at cycle t executes from t+2.
		ready := max(r1, r2)
		if ready <= now+2 {
			return false
		}
		next = min(next, ready-2)
	}
	// Until the first cycle with a unit, D-cache port or result bus
	// scheduled.
	for t := now; t < next; t++ {
		i, j := t&(horizon-1), t%poolHorizon
		if c.dportSched[i]|c.busSched[i] != 0 ||
			c.pools[FUIntALU].sched[j]|c.pools[FUIntMult].sched[j]|
				c.pools[FUFPALU].sched[j]|c.pools[FUFPMult].sched[j] != 0 {
			next = t
			break
		}
	}
	if next <= now {
		return false
	}
	n := c.quietThrottle.QuietLimits(now, next-now)
	if n == 0 {
		return false
	}

	// What n quiet steps count: every waiting entry blocked on an
	// operand, the stalls above, an empty issue group.
	if c.robCount == 0 {
		c.stats.RobEmpty += n
	}
	c.stats.BlockOperand += n * uint64(len(c.waiting))
	if fetchStall != nil {
		*fetchStall += n
	}
	if dispatchStall != nil {
		*dispatchStall += n
	}
	c.stats.IssueSizeHist[0] += n
	if b := c.robCount / 8; b < len(c.stats.OccupancyHist) {
		c.stats.OccupancyHist[b] += n
	}
	for t := now; t < now+n; t++ {
		c.issueHist[t&(horizon-1)] = 0
		c.issueNewValHist[t&(horizon-1)] = 0
	}
	if c.observer != nil {
		c.usage.Cycle = now
		ObserveQuiet(c.observer, &c.usage, n)
	}
	c.cycle = now + n
	return true
}

// commit retires completed instructions in order, up to the commit width.
func (c *Core) commit(cyc uint64) int {
	n := 0
	for n < c.cfg.IssueWidth && c.robCount > 0 {
		e := &c.rob[c.robHead]
		if e.state != stIssued || e.doneTime > cyc {
			break
		}
		if e.isMem {
			c.lsqCount--
		}
		e.state = stFree
		c.robHead = (c.robHead + 1) % len(c.rob)
		c.robCount--
		c.stats.Committed++
		n++
	}
	return n
}

// operandReady reports whether an operand (producer idx/seq) is available
// for an execution start at cycle execStart.
func (c *Core) operandReady(idx int32, seq uint64, execStart uint64) bool {
	ready, ok := c.readyAt(idx, seq)
	return ok && ready <= execStart
}

// readyAt returns the first cycle an execution may start with an operand
// (producer idx/seq), and false while its producer has not issued.
func (c *Core) readyAt(idx int32, seq uint64) (uint64, bool) {
	if idx < 0 {
		return 0, true
	}
	p := &c.rob[idx]
	if p.state == stFree || p.dyn.Seq != seq {
		return 0, true // producer retired: value is architectural
	}
	if p.state != stIssued {
		return 0, false // producer not yet scheduled
	}
	return p.readyTime, true
}

// issue performs the issue stage's wakeup+select for cycle cyc: it walks
// the issue queue (the window's not-yet-issued entries) oldest-first and
// selects ready instructions subject to the issue width, execution unit
// availability (sequential priority), and D-cache port budget, compacting
// the queue in place. Selected instructions begin execution at cyc+2
// (Figure 6: select at X, register read at X+1, execute at X+2).
func (c *Core) issue(cyc uint64, limits Limits) (issued, fpIssued, memIssued, newVal int) {
	width := limits.IssueWidth
	if width > c.cfg.IssueWidth {
		width = c.cfg.IssueWidth
	}
	dports := limits.DPorts
	if dports > c.cfg.DL1.Ports {
		dports = c.cfg.DL1.Ports
	}
	execStart := cyc + 2

	// Each visited entry is written back at q[kept] and dropped again if
	// selected, so the queue compacts in place and stays oldest-first.
	q := c.waiting
	kept, i := 0, 0
	for ; i < len(q) && issued < width; i++ {
		q[kept] = q[i]
		kept++
		e := &c.rob[q[i]]
		if !c.operandReady(e.src1Idx, e.src1Seq, execStart) ||
			!c.operandReady(e.src2Idx, e.src2Seq, execStart) {
			c.stats.BlockOperand++
			continue
		}
		class := e.dyn.Inst.Class()

		ev := IssueEvent{Cycle: cyc, FUIdx: -1}

		if e.isMem {
			if memIssued >= dports {
				c.stats.BlockPort++
				continue // structural: no D-cache port
			}
			isStore := class == isa.ClassStore
			portCycle := cyc + 3
			if isStore && c.cfg.StoreDelayPolicy == config.StoreOneCycleDelay {
				// Section 3.3 possibility 2: delay the store one cycle to
				// set up the clock-gate control.
				portCycle++
			}
			dLat := c.hier.DataLatencyAt(portCycle, e.dyn.EA, isStore)
			e.readyTime = portCycle + uint64(dLat)
			e.doneTime = e.readyTime
			if isStore {
				// Stores complete once the access is done; they produce
				// no register value.
				e.readyTime = portCycle
			}
			c.dportSched[portCycle&(horizon-1)]++
			ev.IsLoad = !isStore
			ev.IsStore = isStore
			ev.DPortCycle = portCycle
		} else {
			fuType, needsFU := FUTypeFor(class)
			if needsFU {
				lat := c.lat.of(class)
				enabled := limits.enabledOf(fuType)
				fuIdx := c.pools[fuType].acquire(execStart, lat, enabled)
				if fuIdx < 0 {
					c.stats.BlockFU++
					continue // structural: all units busy or disabled
				}
				e.readyTime = execStart + uint64(lat)
				e.doneTime = e.readyTime
				ev.FUType = fuType
				ev.FUIdx = fuIdx
				ev.FUStart = execStart
				ev.FULat = lat
			} else {
				e.readyTime = execStart + 1
				e.doneTime = e.readyTime
			}
		}

		if e.dyn.Inst.Class().WritesReg() {
			// The result bus is driven the cycle after the value is
			// produced (the writeback stage).
			busCycle := e.readyTime + 1
			if busCycle-cyc >= horizon {
				panic("cpu: writeback beyond the scheduling horizon; enlarge horizon")
			}
			c.busSched[busCycle&(horizon-1)]++
			ev.WritesReg = true
			ev.ResultBusCycle = busCycle
		}

		// Value-change tracking: issue lane `issued` (position in this
		// cycle's group) compares the instruction's architectural value
		// against the value the lane's latches last carried. Unchanged
		// values need no clock edge downstream.
		if c.issueLaneVal[issued] != e.dyn.Value {
			c.issueLaneVal[issued] = e.dyn.Value
			newVal++
		}

		e.state = stIssued
		kept-- // selected: leaves the queue
		issued++
		c.stats.Issued++
		c.stats.ClassIssued[class]++
		if e.fpOp {
			fpIssued++
		}
		if e.isMem {
			memIssued++
		}

		// Mispredicted control instructions release the stalled front end
		// when they resolve at the end of execute.
		if e.mispred && c.waitingResolve && e.dyn.Seq == c.pendingSeq {
			c.fetchResume = execStart + uint64(c.lat.of(class)) + uint64(c.extraRedirect)
			c.waitingResolve = false
		}

		if c.issueLis != nil {
			c.issueLis.OnIssue(ev)
		}
	}
	// Entries past the width cut stay queued unvisited.
	kept += copy(q[kept:], q[i:])
	c.waiting = q[:kept]
	return issued, fpIssued, memIssued, newVal
}

// enabledOf returns the enabled unit count for a pool.
func (l Limits) enabledOf(t FUType) int {
	switch t {
	case FUIntALU:
		return l.IntALU
	case FUIntMult:
		return l.IntMult
	case FUFPALU:
		return l.FPALU
	default:
		return l.FPMult
	}
}

// dispatch moves instructions from the front-end pipe into the window
// (register rename + window allocation), up to the machine width.
func (c *Core) dispatch(cyc uint64) (n, newVal int) {
	for n < c.cfg.IssueWidth && c.frontLen > 0 {
		fe := &c.front[c.frontHead]
		if fe.eligible > cyc {
			break
		}
		if c.robCount >= len(c.rob) {
			c.stats.RobFullStall++
			break // window full
		}
		isMem := fe.dyn.IsMem()
		if isMem && c.lsqCount >= c.cfg.LSQSize {
			c.stats.LSQFullStall++
			break // LSQ full
		}
		idx := (c.robHead + c.robCount) % len(c.rob)
		e := &c.rob[idx]
		*e = robEntry{
			dyn:     fe.dyn,
			state:   stDispatched,
			isMem:   isMem,
			fpOp:    fe.dyn.Inst.Class().IsFP(),
			src1Idx: -1,
			src2Idx: -1,
			mispred: fe.mispred,
		}
		in := fe.dyn.Inst
		if in.Op.NumSrc() >= 1 && in.Src1 != isa.NoReg {
			e.src1Idx, e.src1Seq = c.lookupProducer(in.Src1)
		}
		if in.Op.NumSrc() >= 2 && in.Src2 != isa.NoReg {
			e.src2Idx, e.src2Seq = c.lookupProducer(in.Src2)
		}
		if in.Op.HasDst() && in.Dst != isa.NoReg {
			c.setProducer(in.Dst, int32(idx), fe.dyn.Seq)
		}
		c.waiting = append(c.waiting, int32(idx))
		c.robCount++
		if isMem {
			c.lsqCount++
		}
		// Rename-latch value tracking for lane n (see issue()).
		if c.dispLaneVal[n] != fe.dyn.Value {
			c.dispLaneVal[n] = fe.dyn.Value
			newVal++
		}
		c.frontHead++
		if c.frontHead == c.frontCap {
			c.frontHead = 0
		}
		c.frontLen--
		n++
	}
	return n, newVal
}

func (c *Core) lookupProducer(r isa.Reg) (int32, uint64) {
	if r.IsFP() {
		i := r.Index()
		return c.fpProd[i], c.fpSeq[i]
	}
	i := r.Index()
	if i == isa.RegZero {
		return -1, 0
	}
	return c.intProd[i], c.intSeq[i]
}

func (c *Core) setProducer(r isa.Reg, idx int32, seq uint64) {
	if r.IsFP() {
		i := r.Index()
		c.fpProd[i] = idx
		c.fpSeq[i] = seq
		return
	}
	i := r.Index()
	if i == isa.RegZero {
		return
	}
	c.intProd[i] = idx
	c.intSeq[i] = seq
}

// fetch brings up to the fetch width of instructions into the front end,
// modelling I-cache latency, one-taken-branch-per-cycle fetch, and
// misprediction stalls.
func (c *Core) fetch(cyc uint64) {
	if c.streamDone {
		return
	}
	if c.waitingResolve {
		c.stats.StallResolve++
		return
	}
	if cyc < c.fetchResume {
		c.stats.StallICache++
		return
	}
	frontDelay := uint64(2 + c.cfg.Pipeline.ExtraFrontEnd)
	hitLat := c.cfg.IL1.HitLatency

	for k := 0; k < c.cfg.IssueWidth; k++ {
		if c.frontLen >= c.frontCap {
			if k == 0 {
				c.stats.StallFrontFull++
			}
			return
		}
		if !c.nextValid {
			d, ok := c.src.Next()
			if !ok {
				c.streamDone = true
				return
			}
			c.nextInst = d
			c.nextValid = true
		}
		d := c.nextInst

		// I-cache: charge the access when a new line is entered; a miss
		// stalls the fetch stage for the extra latency.
		line := d.PC >> c.fetchLineShift
		if line != c.lastFetchLine {
			lat := c.hier.FetchLatency(d.PC)
			c.lastFetchLine = line
			if lat > hitLat {
				c.fetchResume = cyc + uint64(lat-hitLat)
				return // fetch group ends at the miss
			}
		}

		c.nextValid = false
		fe := frontEntry{dyn: d, eligible: cyc + frontDelay}
		c.stats.Fetched++

		stop := false
		if d.IsCtrl() {
			mispred := c.predictAndTrain(&d)
			fe.mispred = mispred
			if mispred {
				c.stats.Mispredicts++
				c.waitingResolve = true
				c.pendingSeq = d.Seq
				stop = true
			} else if d.Taken {
				// Correctly predicted taken: the fetch group ends, and the
				// next group starts at the target next cycle.
				stop = true
			}
		}
		slot := c.frontHead + c.frontLen
		if slot >= c.frontCap {
			slot -= c.frontCap
		}
		c.front[slot] = fe
		c.frontLen++
		if stop {
			return
		}
	}
}

// predictAndTrain consults and updates the branch machinery for a control
// instruction, returning true on a misprediction.
func (c *Core) predictAndTrain(d *trace.DynInst) bool {
	var p bpred.Prediction
	isCond := d.Inst.Class() == isa.ClassBranch
	isCall := d.Inst.Op == isa.OpCall
	isRet := d.Inst.Op == isa.OpRet
	switch {
	case isCond:
		p = c.pred.PredictCond(d.PC)
		c.stats.CondBranches++
		c.pred.CondLookups++
	case isRet:
		p = c.pred.PredictRet(d.PC)
	default:
		p = c.pred.PredictJump(d.PC)
	}
	mispred := p.Taken != d.Taken || (d.Taken && p.Target != d.Target)
	if c.cfg.PerfectBPred {
		mispred = false // oracle front end (ablation)
	}
	if isCond && !mispred {
		c.stats.CondCorrect++
		c.pred.CondCorrect++
	}
	c.pred.Train(bpred.Update{
		PC: d.PC, Taken: d.Taken, Target: d.Target,
		IsCall: isCall, IsRet: isRet, IsCond: isCond,
	})
	return mispred
}
