package gating

import (
	"dcg/internal/config"
	"dcg/internal/cpu"
	"dcg/internal/power"
)

// Oracle is a headroom study, not a buildable design: it extends DCG with
// the structures the paper leaves to others or declares ungatable —
//
//   - the issue queue, gated per empty window entry: entries that hold no
//     instruction are deterministically known to be empty, the observation
//     of prior work [6] the paper defers to (§2.2.2);
//   - the front-end (fetch/decode/issue) pipeline latches, gated with
//     oracle knowledge of each cycle's fetch flow — knowledge a real front
//     end does not have in advance (§2.2.1 explains why), which is what
//     makes this an upper bound rather than a design.
//
// Comparing DCG against Oracle quantifies how much gatable-class power
// DCG's purely deterministic, implementable signals already capture.
type Oracle struct {
	dcg *DCG
	cfg config.Config

	// fetchHist delays the fetch flow through the front-end stages.
	fetchHist  []int
	frontDepth int

	// slab backs the caller-owned FrontLatchSlots slices (see intSlab).
	slab intSlab
}

// NewOracle builds the headroom scheme.
func NewOracle(cfg config.Config) *Oracle {
	depth := cfg.FrontEndLatchStages()
	return &Oracle{
		dcg:        NewDCG(cfg),
		cfg:        cfg,
		fetchHist:  make([]int, depth),
		frontDepth: depth,
	}
}

// Name implements Scheme.
func (o *Oracle) Name() string { return "oracle" }

// Limits implements cpu.Throttle: like DCG, the oracle never throttles.
func (o *Oracle) Limits(cycle uint64, fb cpu.CycleFeedback) cpu.Limits {
	return o.dcg.Limits(cycle, fb)
}

// OnIssue implements cpu.IssueListener.
func (o *Oracle) OnIssue(ev cpu.IssueEvent) { o.dcg.OnIssue(ev) }

// Gates implements power.Gater: DCG's decisions plus issue-queue and
// front-end latch gating.
func (o *Oracle) Gates(cycle uint64, u *cpu.Usage) power.GateState {
	return o.extend(o.dcg.Gates(cycle, u), u)
}

// QuietLimits implements cpu.QuietThrottle: the oracle never throttles.
func (o *Oracle) QuietLimits(_, n uint64) uint64 { return n }

// GatesQuiet implements power.QuietGater: DCG's run state, once the fetch
// history holds nothing but the run's fetch count after its first cycle
// shifts that count in. Until then the front-end slots differ from cycle
// to cycle, and the accountant charges cycles one at a time.
func (o *Oracle) GatesQuiet(cycle, n uint64, u *cpu.Usage) (power.GateState, bool) {
	for _, f := range o.fetchHist[:o.frontDepth-1] {
		if f != u.FetchCount {
			return power.GateState{}, false
		}
	}
	gs, ok := o.dcg.GatesQuiet(cycle, n, u)
	if !ok {
		return gs, false
	}
	return o.extend(gs, u), true
}

// extend adds the oracle's issue-queue and front-end latch gating to DCG's
// decision for a cycle with usage u.
func (o *Oracle) extend(gs power.GateState, u *cpu.Usage) power.GateState {
	// Issue queue: only occupied entries stay clocked ([6]).
	if o.cfg.WindowSize > 0 {
		gs.IssueQueueFrac = float64(u.WindowOccupancy) / float64(o.cfg.WindowSize)
	}

	// Front-end latches: stage s carries the fetch flow delayed s cycles
	// (oracle knowledge — a real design cannot know this in time). The
	// returned slice is never-reused slab memory: GateStates are
	// caller-owned.
	copy(o.fetchHist[1:], o.fetchHist[:o.frontDepth-1])
	o.fetchHist[0] = u.FetchCount
	front := o.slab.take(o.frontDepth)
	copy(front, o.fetchHist)
	gs.FrontLatchSlots = front
	return gs
}

// Stats exposes the wrapped DCG controller's activity summary.
func (o *Oracle) Stats() DCGStats { return o.dcg.Stats() }

// LeadViolations exposes the wrapped controller's advance-knowledge check.
func (o *Oracle) LeadViolations() uint64 { return o.dcg.LeadViolations }
