package gating

import (
	"fmt"

	"dcg/internal/config"
	"dcg/internal/cpu"
	"dcg/internal/power"
)

// PLB modes are named by their effective issue width.
const (
	Mode8 = 8
	Mode6 = 6
	Mode4 = 4
)

// PLBParams are the trigger parameters of section 4.3 (issue IPC primary
// trigger, FP issue IPC and mode history secondary, 256-cycle windows).
type PLBParams struct {
	// Window is the sampling window in cycles.
	Window int

	// HighIPC: windows with issue IPC at or above this run 8-wide.
	HighIPC float64

	// MidIPC: windows with issue IPC at or above this (but below
	// HighIPC) run 6-wide; below it, 4-wide.
	MidIPC float64

	// FPGuard: when the window's FP issue IPC is at or above this, the
	// machine does not drop below 6-wide (the FP units are needed).
	FPGuard float64

	// DownHysteresis is the number of consecutive qualifying windows
	// before stepping down one mode (the "mode history" secondary
	// trigger that suppresses spurious transitions). Stepping up happens
	// immediately.
	DownHysteresis int
}

// DefaultPLBParams returns the paper-aligned trigger configuration.
func DefaultPLBParams() PLBParams {
	return PLBParams{
		Window:         256,
		HighIPC:        3.0,
		MidIPC:         2.2,
		FPGuard:        0.35,
		DownHysteresis: 2,
	}
}

// PLB implements pipeline balancing adapted to the non-clustered 8-wide
// machine (section 4.3). Ext selects PLB-ext (which additionally gates
// pipeline latches, D-cache wordline decoders and result buses); the
// default is PLB-orig (execution units + issue queue only). Both variants
// throttle the pipeline identically, except that PLB-ext also reduces the
// D-cache from 2 ports to 1 in 4-wide mode.
//
// Gating is drain-aware: a structure slice disabled by a mode switch
// remains clocked while instructions issued in the previous mode are still
// using it (the hardware would drain before gating), so PLB never gates a
// live structure.
type PLB struct {
	cfg    config.Config
	params PLBParams
	ext    bool

	mode    int
	lowRuns int // consecutive windows qualifying for a step down
	winCyc  int
	winIss  int
	winFP   int

	// stages is the number of gatable back-end latch stages.
	stages int

	// slab backs the caller-owned BackLatchSlots slices (see intSlab).
	slab intSlab

	// oracle, when non-nil, replaces the trigger FSM: window w runs in
	// mode oracle[w] (clamped to the last entry). Used by the
	// prediction-vs-granularity study to give PLB perfect per-window
	// predictions.
	oracle []int

	// Stats.
	windows     uint64
	modeCycles  map[int]uint64
	transitions uint64
}

// NewPLB builds a PLB controller. ext selects the PLB-ext variant.
func NewPLB(cfg config.Config, params PLBParams, ext bool) *PLB {
	if params.Window <= 0 {
		params = DefaultPLBParams()
	}
	return &PLB{
		cfg:        cfg,
		params:     params,
		ext:        ext,
		mode:       Mode8,
		stages:     cfg.BackEndLatchStages(),
		modeCycles: map[int]uint64{},
	}
}

// Name implements Scheme.
func (p *PLB) Name() string {
	name := "plb-orig"
	if p.ext {
		name = "plb-ext"
	}
	if p.oracle != nil {
		name += "-oracle"
	}
	return name
}

// Ext reports whether this is the extended variant.
func (p *PLB) Ext() bool { return p.ext }

// enabledUnits returns the per-pool enabled unit counts for a mode
// (section 4.3: 6-wide disables 1 integer ALU, 1 FPU and 1 FP mult/div;
// 4-wide disables 3 integer ALUs, 1 integer mult/div, 2 FPUs and 2 FP
// mult/div units).
func (p *PLB) enabledUnits(mode int) (ia, im, fa, fm int) {
	fu := p.cfg.FU
	switch mode {
	case Mode6:
		return disable(fu.IntALU, 1), fu.IntMult, disable(fu.FPALU, 1), disable(fu.FPMult, 1)
	case Mode4:
		return disable(fu.IntALU, 3), disable(fu.IntMult, 1), disable(fu.FPALU, 2), disable(fu.FPMult, 2)
	default:
		return fu.IntALU, fu.IntMult, fu.FPALU, fu.FPMult
	}
}

// disable returns how many of a pool's n units stay enabled when a mode
// disables k of them. It never disables the last unit: with none left
// the pool's ops could never issue, and the issue IPC would stay low
// enough to keep the machine in that mode forever.
func disable(n, k int) int {
	return max(n-k, min(n, 1))
}

// dports returns the usable D-cache ports for a mode. Only PLB-ext
// reduces ports, and only in 4-wide mode (section 4.3).
func (p *PLB) dports(mode int) int {
	if p.ext && mode == Mode4 && p.cfg.DL1.Ports > 1 {
		return 1
	}
	return p.cfg.DL1.Ports
}

// width returns the current mode's issue width on this machine: the mode
// (8, 6 or 4), clamped to the machine's own width. Every per-mode width
// PLB applies or charges for goes through it, so a machine narrower than
// a mode runs and is charged at its full width in that mode.
func (p *PLB) width() int { return min(p.mode, p.cfg.IssueWidth) }

// Limits implements cpu.Throttle: it accumulates the window statistics and
// returns the current mode's resource restrictions.
func (p *PLB) Limits(cycle uint64, fb cpu.CycleFeedback) cpu.Limits {
	p.winIss += fb.Issued
	p.winFP += fb.FPIssued
	p.winCyc++
	p.modeCycles[p.mode]++
	if p.winCyc >= p.params.Window {
		p.decide()
		p.winCyc, p.winIss, p.winFP = 0, 0, 0
	}
	ia, im, fa, fm := p.enabledUnits(p.mode)
	return cpu.Limits{
		IssueWidth: p.width(),
		DPorts:     p.dports(p.mode),
		IntALU:     ia,
		IntMult:    im,
		FPALU:      fa,
		FPMult:     fm,
	}
}

// QuietLimits implements cpu.QuietThrottle: it takes the zero-feedback
// cycles that stop short of the window's decision cycle (whose Limits call
// may switch the mode), counting them into the window and the mode.
func (p *PLB) QuietLimits(_, n uint64) uint64 {
	left := p.params.Window - 1 - p.winCyc
	if left <= 0 {
		return 0
	}
	n = min(n, uint64(left))
	p.winCyc += int(n)
	p.modeCycles[p.mode] += n
	return n
}

// SetOracleSchedule replaces the predictive trigger with a fixed
// per-window mode schedule (perfect prediction for the
// prediction-vs-granularity decomposition).
func (p *PLB) SetOracleSchedule(modes []int) { p.oracle = modes }

// TargetMode applies the trigger rule to one window's statistics without
// hysteresis — the mode a perfect predictor would pick for that window.
func (p *PLB) TargetMode(ipc, fp float64) int {
	switch {
	case ipc >= p.params.HighIPC:
		return Mode8
	case ipc >= p.params.MidIPC:
		return Mode6
	default:
		if fp >= p.params.FPGuard {
			return Mode6
		}
		return Mode4
	}
}

// decide applies the trigger FSM at a window boundary.
func (p *PLB) decide() {
	p.windows++
	if p.oracle != nil {
		idx := int(p.windows)
		if idx >= len(p.oracle) {
			idx = len(p.oracle) - 1
		}
		if idx >= 0 {
			if next := p.oracle[idx]; next != p.mode {
				p.mode = next
				p.transitions++
			}
		}
		return
	}
	w := float64(p.params.Window)
	ipc := float64(p.winIss) / w
	fp := float64(p.winFP) / w

	target := p.TargetMode(ipc, fp)

	switch {
	case target > p.mode:
		// Performance-protective: step all the way up immediately.
		p.mode = target
		p.lowRuns = 0
		p.transitions++
	case target < p.mode:
		p.lowRuns++
		if p.lowRuns >= p.params.DownHysteresis {
			p.mode = stepDown(p.mode)
			p.lowRuns = 0
			p.transitions++
		}
	default:
		p.lowRuns = 0
	}
}

func stepDown(mode int) int {
	switch mode {
	case Mode8:
		return Mode6
	case Mode6:
		return Mode4
	default:
		return Mode4
	}
}

// OnIssue implements cpu.IssueListener; PLB does not use grant signals.
func (p *PLB) OnIssue(cpu.IssueEvent) {}

// Gates implements power.Gater.
func (p *PLB) Gates(cycle uint64, u *cpu.Usage) power.GateState {
	ia, im, fa, fm := p.enabledUnits(p.mode)

	var gs power.GateState
	// Drain-aware unit gating: mode slice plus anything still computing.
	gs.IntALUMask = mask(ia) | u.IntALUBusy
	gs.IntMultMask = mask(im) | u.IntMultBusy
	gs.FPALUMask = mask(fa) | u.FPALUBusy
	gs.FPMultMask = mask(fm) | u.FPMultBusy

	w := p.width()
	gs.IssueQueueFrac = float64(w) / float64(p.cfg.IssueWidth)

	// GateStates are caller-owned: the slot vector is cut from
	// never-reused slab memory rather than aliasing controller scratch.
	slots := p.slab.take(p.stages)
	if p.ext {
		for s := range slots {
			n := w
			if s < len(u.BackLatch) && u.BackLatch[s] > n {
				n = u.BackLatch[s] // drain
			}
			slots[s] = n
		}
		gs.BackLatchSlots = slots
		gs.DPortsOn = p.dports(p.mode)
		if u.DPortUsed > gs.DPortsOn {
			gs.DPortsOn = u.DPortUsed // drain
		}
		gs.ResultBusOn = w
		if u.ResultBus > gs.ResultBusOn {
			gs.ResultBusOn = u.ResultBus // drain
		}
	} else {
		// PLB-orig gates only execution units and the issue queue.
		for s := range slots {
			slots[s] = p.cfg.IssueWidth
		}
		gs.BackLatchSlots = slots
		gs.DPortsOn = p.cfg.DL1.Ports
		gs.ResultBusOn = p.cfg.IssueWidth
	}
	return gs
}

// GatesQuiet implements power.QuietGater: the mode only changes in
// Limits, so the run's every cycle gets its first cycle's state.
func (p *PLB) GatesQuiet(cycle, _ uint64, u *cpu.Usage) (power.GateState, bool) {
	return p.Gates(cycle, u), true
}

// ModeCycles returns cycles spent in each mode.
func (p *PLB) ModeCycles() map[int]uint64 {
	out := make(map[int]uint64, len(p.modeCycles))
	for k, v := range p.modeCycles {
		out[k] = v
	}
	return out
}

// Transitions returns the number of mode switches taken.
func (p *PLB) Transitions() uint64 { return p.transitions }

// String summarises the controller.
func (p *PLB) String() string {
	return fmt.Sprintf("%s(window=%d, mode=%d)", p.Name(), p.params.Window, p.mode)
}
