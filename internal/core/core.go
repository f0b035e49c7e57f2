// Package core is the library's public API: it wires a workload, the
// out-of-order core, the Wattch-style power model, and a clock-gating
// scheme into a single simulation run and reports the paper's metrics
// (IPC, per-component power, savings versus the no-gating baseline,
// structure utilisations).
//
// Typical use:
//
//	sim := core.NewSimulator(core.DefaultMachine())
//	res, err := sim.RunBenchmark("gcc", core.SchemeDCG, 200_000)
//	fmt.Println(res.Summary())
package core

import (
	"context"
	"fmt"
	"log/slog"
	"strings"
	"time"

	"dcg/internal/config"
	"dcg/internal/cpu"
	"dcg/internal/gating"
	"dcg/internal/obs"
	"dcg/internal/power"
	"dcg/internal/trace"
	"dcg/internal/usagetrace"
	"dcg/internal/workload"
)

// DefaultMachine returns the Table 1 processor configuration.
func DefaultMachine() config.Config { return config.Default() }

// DeepMachine returns the 20-stage configuration of section 5.6.
func DeepMachine() config.Config { return config.Deep() }

// StallStack attributes the run's cycles: a CPI-stack-style breakdown of
// where the machine's time went (fractions of total cycles; Busy is the
// residual in which at least one instruction issued).
type StallStack struct {
	Busy        float64 // cycles with at least one instruction issued
	FetchBubble float64 // front end stalled: mispredict resolution + redirect + I-miss
	WindowEmpty float64 // window drained (front end could not refill)
	WindowStall float64 // window/LSQ full (long-latency head blocking)
	Other       float64 // issue-less cycles not otherwise classified
}

// Utilization summarises structure activity over a run (the quantities the
// paper reports in sections 5.2-5.5).
type Utilization struct {
	IntUnits  float64 // integer ALU + mult/div busy fraction
	FPUnits   float64 // FP ALU + mult/div busy fraction
	Latches   float64 // gatable latch slot occupancy
	DPorts    float64 // D-cache port activity
	ResultBus float64 // result-bus activity
}

// Result is the outcome of one simulation run.
type Result struct {
	Benchmark string
	Scheme    string
	Machine   config.Config

	Cycles    uint64
	Committed uint64
	IPC       float64

	// AvgPower is the mean per-cycle power under the scheme;
	// BaselinePower is the all-on per-cycle power of the same machine.
	AvgPower      float64
	BaselinePower float64

	// Saving is the fractional power saving versus the baseline.
	Saving float64

	Energy power.Breakdown

	Util  Utilization
	Stall StallStack

	// Branch/cache behaviour.
	BranchAccuracy float64
	DL1MissRate    float64
	L2MissRate     float64

	// PLBModeCycles is non-nil for PLB runs: cycles spent per issue-width
	// mode.
	PLBModeCycles map[int]uint64

	// Soundness counters (must be zero for DCG).
	GateViolations uint64
	LeadViolations uint64

	// CPUStats is the raw core statistics snapshot.
	CPUStats cpu.Stats

	// fullPerCycle is the machine's all-on per-cycle power per component,
	// copied out of the run's power model. Results are cached by the
	// simrun LRU; holding the model and accountant themselves would keep
	// the whole gating scheme (DCG's ~260KB of schedule rings hangs off
	// the accountant's Gater) alive per cached entry, so Result carries
	// only these plain numbers and recomputes a Model on demand.
	fullPerCycle power.Breakdown
}

// ComponentSaving exposes per-structure savings for the figure harnesses:
// the energy the component group consumed versus always-on over the run.
// The arithmetic mirrors power.Accountant.ComponentSaving term for term,
// so replayed and direct results agree bit for bit.
func (r *Result) ComponentSaving(comps ...power.Component) float64 {
	var used, full float64
	for _, c := range comps {
		used += r.Energy[c]
		full += r.fullPerCycle[c] * float64(r.Cycles)
	}
	if full == 0 {
		return 0
	}
	return 1 - used/full
}

// LatchSaving returns the Figure 14 quantity: saving over total pipeline
// latch power (front + back), with DCG's control-latch overhead charged
// against it.
func (r *Result) LatchSaving() float64 {
	used := r.Energy[power.CompLatchFront] + r.Energy[power.CompLatchBack] + r.Energy[power.CompDCGControl]
	full := (r.fullPerCycle[power.CompLatchFront] + r.fullPerCycle[power.CompLatchBack]) * float64(r.Cycles)
	if full == 0 {
		return 0
	}
	return 1 - used/full
}

// DCacheSaving returns the Figure 15 quantity: saving over total D-cache
// power (decoders + rest).
func (r *Result) DCacheSaving() float64 {
	used := r.Energy[power.CompDCacheDecoder] + r.Energy[power.CompDCacheOther]
	full := (r.fullPerCycle[power.CompDCacheDecoder] + r.fullPerCycle[power.CompDCacheOther]) * float64(r.Cycles)
	if full == 0 {
		return 0
	}
	return 1 - used/full
}

// Model rebuilds the run's power model from the machine configuration
// (model derivation is deterministic, so this is the model the run used;
// the result deliberately does not retain the original — see fullPerCycle).
func (r *Result) Model() *power.Model {
	m, err := power.NewModel(r.Machine)
	if err != nil {
		// The run already validated this configuration; a failure here is
		// a programming error, not a user input.
		panic(fmt.Sprintf("core: rebuilding power model: %v", err))
	}
	return m
}

// PowerDelay returns the run's power-delay product (average power times
// cycle count).
func (r *Result) PowerDelay() float64 { return r.AvgPower * float64(r.Cycles) }

// Summary renders a human-readable run summary.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s / %s: %d insts in %d cycles (IPC %.2f)\n",
		r.Benchmark, r.Scheme, r.Committed, r.Cycles, r.IPC)
	fmt.Fprintf(&b, "  power %.0f / baseline %.0f  -> saving %.1f%%\n",
		r.AvgPower, r.BaselinePower, 100*r.Saving)
	fmt.Fprintf(&b, "  util: int %.0f%%  fp %.0f%%  latch %.0f%%  dport %.0f%%  bus %.0f%%\n",
		100*r.Util.IntUnits, 100*r.Util.FPUnits, 100*r.Util.Latches,
		100*r.Util.DPorts, 100*r.Util.ResultBus)
	fmt.Fprintf(&b, "  branches %.1f%% correct, DL1 miss %.1f%%, L2 miss %.1f%%\n",
		100*r.BranchAccuracy, 100*r.DL1MissRate, 100*r.L2MissRate)
	fmt.Fprintf(&b, "  cycles: %.0f%% busy, %.0f%% fetch bubbles, %.0f%% window-full, %.0f%% empty\n",
		100*r.Stall.Busy, 100*r.Stall.FetchBubble, 100*r.Stall.WindowStall, 100*r.Stall.WindowEmpty)
	if r.PLBModeCycles != nil {
		fmt.Fprintf(&b, "  plb modes: 8w=%d 6w=%d 4w=%d\n",
			r.PLBModeCycles[gating.Mode8], r.PLBModeCycles[gating.Mode6], r.PLBModeCycles[gating.Mode4])
	}
	return b.String()
}

// Simulator runs benchmarks on a fixed machine configuration.
type Simulator struct {
	machine config.Config

	// PLBParams configures the PLB trigger; zero value means defaults.
	PLBParams gating.PLBParams

	// Warmup is the number of instructions functionally streamed through
	// the caches and branch predictor before the measured region starts
	// (the stand-in for the paper's 2-billion-instruction fast-forward).
	Warmup uint64

	// LeakageFrac extends the paper's zero-leakage accounting: gated
	// structures still burn this fraction of their dynamic power.
	// Default 0, as in the paper (section 4.2).
	LeakageFrac float64

	// Telemetry, when non-nil, observes the measured region: it receives
	// every per-cycle usage vector (after any trace writer, before the
	// power accountant) and — via a gating.Observed wrapper around the
	// run's scheme — every per-cycle gating decision. The obs package's
	// PipelineRecorder implements it; dcgsim -trace-out and the server's
	// /v1/trace endpoint wire it up.
	Telemetry RunTelemetry

	// DisablePackedReplay forces replay evaluations down the scalar fused
	// path even when every scheme is packed-eligible. For tests and
	// benchmarks that target the scalar engine specifically; production
	// callers leave it false and get the packed kernel automatically.
	DisablePackedReplay bool
}

// RunTelemetry observes a run: the usage stream plus each cycle's gating
// decision. Implementations must follow the cpu.Observer contract (the
// Usage buffer is reused; never retain it) and must not mutate the
// GateState's slices.
type RunTelemetry interface {
	cpu.Observer
	OnGates(cycle uint64, gs power.GateState)
}

// DefaultWarmup is the default functional warm-up length.
const DefaultWarmup = 200_000

// NewSimulator builds a simulator for the given machine.
func NewSimulator(machine config.Config) *Simulator {
	return &Simulator{
		machine:   machine,
		PLBParams: gating.DefaultPLBParams(),
		Warmup:    DefaultWarmup,
	}
}

// Machine returns the simulator's machine configuration.
func (s *Simulator) Machine() config.Config { return s.machine }

// makeScheme instantiates a gating scheme for this machine from its
// registry entry.
func (s *Simulator) makeScheme(kind SchemeKind) (gating.Scheme, error) {
	info, ok := SchemeInfoFor(kind)
	if !ok {
		_, err := ParseScheme(string(kind))
		return nil, err
	}
	return info.New(s), nil
}

// RunBenchmark simulates maxInsts dynamic instructions of the named
// built-in benchmark under the given scheme.
func (s *Simulator) RunBenchmark(name string, kind SchemeKind, maxInsts uint64) (*Result, error) {
	return s.RunBenchmarkContext(context.Background(), name, kind, maxInsts)
}

// RunBenchmarkContext is RunBenchmark with cancellation: the context is
// polled inside the cycle loop, so a canceled or timed-out request aborts
// the simulation within a few thousand cycles and returns a context error.
//
// For timing-neutral schemes this is semantically the composition of the
// capture and evaluation passes — RunAndCapture followed by discarding
// the Timing — executed as a single direct pass; a golden test holds the
// two paths bit-identical.
func (s *Simulator) RunBenchmarkContext(ctx context.Context, name string, kind SchemeKind, maxInsts uint64) (*Result, error) {
	scheme, err := s.makeScheme(kind)
	if err != nil {
		return nil, err
	}
	src, prepare, err := s.benchSources(name, maxInsts)
	if err != nil {
		return nil, err
	}
	res, _, err := s.runCapture(ctx, src, prepare, scheme, false, nil)
	return res, err
}

// benchSources returns a built-in benchmark's measured stream and the step
// that brings a fresh core to its start. On a warm-state cache hit that
// step restores the entry's copy of the caches and predictor, and the
// stream continues a copy of the entry's generator. On a miss it runs the
// functional warm-up (Core.Warm) and, if the warm-up streamed all Warmup
// instructions, inserts a snapshot; a warm-up cut short by cancellation
// is never cached. Warmup 0 bypasses the cache.
func (s *Simulator) benchSources(name string, maxInsts uint64) (trace.Source, func(*cpu.Core), error) {
	prof, ok := workload.ByName(name)
	if !ok {
		return nil, nil, fmt.Errorf("core: unknown benchmark %q", name)
	}
	warmup := s.Warmup
	key := warmKeyFor(name, warmup, s.machine)
	if warmup > 0 {
		if st := lookupWarmState(key); st != nil {
			restore := func(c *cpu.Core) { c.Restore(st.hier, st.pred) }
			return trace.NewLimitSource(st.gen.Clone(), maxInsts), restore, nil
		}
	}
	gen, err := workload.NewGenerator(prof)
	if err != nil {
		return nil, nil, err
	}
	warm := func(c *cpu.Core) {
		if c.Warm(trace.NewLimitSource(gen, warmup), ^uint64(0)) == warmup && warmup > 0 {
			insertWarmState(key, &warmState{hier: c.Hierarchy().Clone(), pred: c.Predictor().Clone(), gen: gen.Clone()})
		}
	}
	return trace.NewLimitSource(gen, maxInsts), warm, nil
}

// RunBenchmarkScheme is RunBenchmark with a caller-provided gating scheme
// (partial-DCG ablations, custom controllers). It always takes the
// direct-run path: custom schemes may throttle or observe per-cycle
// Limits, which a replay cannot reproduce.
func (s *Simulator) RunBenchmarkScheme(name string, scheme gating.Scheme, maxInsts uint64) (*Result, error) {
	src, prepare, err := s.benchSources(name, maxInsts)
	if err != nil {
		return nil, err
	}
	res, _, err := s.runCapture(context.Background(), src, prepare, scheme, false, nil)
	return res, err
}

// RunStream warms the machine on the stream's first Warmup instructions,
// then measures the next maxInsts (for custom trace.Sources that should be
// treated like benchmarks).
func (s *Simulator) RunStream(src trace.Source, kind SchemeKind, maxInsts uint64) (*Result, error) {
	scheme, err := s.makeScheme(kind)
	if err != nil {
		return nil, err
	}
	warm := trace.NewLimitSource(src, s.Warmup)
	return s.run(context.Background(), warm, trace.NewLimitSource(src, maxInsts), scheme)
}

// RunSource simulates the given instruction source to exhaustion under the
// given scheme.
func (s *Simulator) RunSource(src trace.Source, kind SchemeKind) (*Result, error) {
	scheme, err := s.makeScheme(kind)
	if err != nil {
		return nil, err
	}
	return s.RunScheme(src, scheme)
}

// RunScheme simulates with a caller-provided gating scheme (for custom
// schemes and ablations). No warm-up pass is applied; use RunBenchmark for
// warmed runs.
func (s *Simulator) RunScheme(src trace.Source, scheme gating.Scheme) (*Result, error) {
	return s.run(context.Background(), nil, src, scheme)
}

// Timing is the product of one timing pass: everything a simulation run
// determines about the machine's cycle-by-cycle behaviour that does not
// depend on the gating scheme. For timing-neutral schemes (TimingNeutral)
// the attached usage trace replays through any scheme + power accountant
// (EvaluateTiming) to produce the same Result a full simulation would.
type Timing struct {
	Benchmark string
	Machine   config.Config

	// CPUStats is the core statistics snapshot; Util/Stall and the
	// branch/cache rates are the derived quantities every Result carries.
	CPUStats       cpu.Stats
	Util           Utilization
	Stall          StallStack
	BranchAccuracy float64
	DL1MissRate    float64
	L2MissRate     float64

	// Trace is the captured per-cycle usage + issue-event stream.
	Trace *usagetrace.Trace
}

// Cycles returns the timing pass's cycle count.
func (t *Timing) Cycles() uint64 { return t.CPUStats.Cycles }

// run warms the machine on warmSrc (when non-nil), then simulates src
// under the scheme: the original single-pass path, with timing and power
// evaluated together.
func (s *Simulator) run(ctx context.Context, warmSrc, src trace.Source, scheme gating.Scheme) (*Result, error) {
	var warm func(*cpu.Core)
	if warmSrc != nil {
		warm = func(c *cpu.Core) { c.Warm(warmSrc, ^uint64(0)) }
	}
	res, _, err := s.runCapture(ctx, src, warm, scheme, false, nil)
	return res, err
}

// runCapture executes the timing simulation; with capture set it also
// records the usage trace through the cpu fan-out (the accountant and the
// trace writer both observe the core's reused Usage buffer; the scheme
// and the writer both hear every GRANT event), returning the scheme's
// Result and the reusable Timing from one pass. channels names the extra
// trace channels to record beyond the implicit usage channel (a capture
// pass records only what some requested scheme needs). prepare, when
// non-nil, brings the core to the measured region's start before the run:
// a warm-up, or a restore of one.
func (s *Simulator) runCapture(ctx context.Context, src trace.Source, prepare func(*cpu.Core), scheme gating.Scheme, capture bool, channels []string) (*Result, *Timing, error) {
	start := time.Now()
	machine := s.machine
	c, err := cpu.New(machine, src)
	if err != nil {
		return nil, nil, err
	}
	c.SetCancel(ctx.Err)
	model, err := power.NewModel(machine)
	if err != nil {
		return nil, nil, err
	}
	if s.Telemetry != nil {
		// Wrap the scheme so every Gates call is reported; resultFor
		// unwraps before its concrete-scheme type switches.
		scheme = gating.Observed{Scheme: scheme, OnGates: s.Telemetry.OnGates}
	}
	acct := power.NewAccountant(model, scheme)
	acct.LeakageFrac = s.LeakageFrac
	c.SetThrottle(scheme)
	// Observer order: the trace writer first (it serialises each cycle
	// exactly as the core published it, before anyone else consumes the
	// reused buffer), telemetry next, the power accountant last.
	var observers cpu.MultiObserver
	var rec *usagetrace.Recorder
	if capture {
		rec, err = usagetrace.NewRecorder(src.Name(), machine.BackEndLatchStages(), channels...)
		if err != nil {
			return nil, nil, err
		}
		observers = append(observers, rec)
		c.SetIssueListener(cpu.MultiIssueListener{rec, scheme})
	} else {
		c.SetIssueListener(scheme)
	}
	if s.Telemetry != nil {
		observers = append(observers, s.Telemetry)
	}
	observers = append(observers, acct)
	if len(observers) == 1 {
		c.SetObserver(acct)
	} else {
		c.SetObserver(observers)
	}
	if prepare != nil {
		prepare(c)
	}

	// No cycle limit: the run ends when the stream drains, or when ctx
	// is canceled (a caller's timeout is the only backstop).
	if _, err := c.Run(0); err != nil {
		return nil, nil, err
	}
	if err := acct.Validate(); err != nil {
		return nil, nil, err
	}

	st := c.Stats()
	tm := &Timing{
		Benchmark:      src.Name(),
		Machine:        machine,
		CPUStats:       *st,
		Util:           utilization(machine, st),
		Stall:          stallStack(st),
		BranchAccuracy: ratio(st.CondCorrect, st.CondBranches),
		DL1MissRate:    c.Hierarchy().DL1.MissRate(),
		L2MissRate:     c.Hierarchy().L2.MissRate(),
	}
	res := resultFor(tm, scheme, model, acct)
	if lg := obs.Logger(ctx); lg.Enabled(ctx, slog.LevelDebug) {
		lg.Debug("core: run complete",
			"bench", tm.Benchmark, "scheme", scheme.Name(), "capture", capture,
			"cycles", st.Cycles, "committed", st.Committed,
			"elapsed_ms", float64(time.Since(start).Microseconds())/1000)
	}
	if !capture {
		return res, nil, nil
	}
	tr, err := rec.Trace()
	if err != nil {
		return nil, nil, err
	}
	tm.Trace = tr
	return res, tm, nil
}

// resultFor assembles a Result from a timing pass and an evaluated
// scheme/accountant pair. Both the direct-run and replay paths funnel
// through here, so the two produce structurally identical Results.
func resultFor(t *Timing, scheme gating.Scheme, model *power.Model, acct *power.Accountant) *Result {
	// Telemetry wraps schemes in gating.Observed; the concrete-scheme
	// type switches below need the scheme underneath.
	scheme = gating.UnwrapScheme(scheme)
	st := &t.CPUStats
	res := &Result{
		Benchmark:      t.Benchmark,
		Scheme:         scheme.Name(),
		Machine:        t.Machine,
		Cycles:         st.Cycles,
		Committed:      st.Committed,
		IPC:            st.IPC(),
		AvgPower:       acct.AvgPower(),
		BaselinePower:  model.AllOnPower(),
		Saving:         acct.Saving(),
		Energy:         acct.Breakdown(),
		CPUStats:       *st,
		Util:           t.Util,
		Stall:          t.Stall,
		BranchAccuracy: t.BranchAccuracy,
		DL1MissRate:    t.DL1MissRate,
		L2MissRate:     t.L2MissRate,
	}
	for c := power.Component(0); c < power.NumComponents; c++ {
		res.fullPerCycle[c] = model.PerCycle(c)
	}
	if plb, ok := scheme.(*gating.PLB); ok {
		res.PLBModeCycles = plb.ModeCycles()
	}
	if dcg, ok := scheme.(*gating.DCG); ok {
		res.LeadViolations = dcg.LeadViolations
	}
	if o, ok := scheme.(*gating.Oracle); ok {
		res.LeadViolations = o.LeadViolations()
	}
	if h, ok := scheme.(*gating.DCGDDCG); ok {
		res.LeadViolations = h.LeadViolations()
	}
	if h, ok := scheme.(*gating.DCGPLB); ok {
		res.LeadViolations = h.LeadViolations()
		res.PLBModeCycles = h.ModeCycles()
	}
	res.GateViolations = acct.GateViolations
	return res
}

// checkTraceChannels verifies the captured trace carries every channel
// the scheme's registry entry requires. A scheme whose name is not
// registered (partial-DCG ablations, custom controllers) is assumed
// usage-only; value-dependent schemes replayed over a channel-less trace
// would silently degrade, so the mismatch fails loudly here.
func checkTraceChannels(t *Timing, scheme gating.Scheme) error {
	info, ok := SchemeInfoFor(SchemeKind(gating.UnwrapScheme(scheme).Name()))
	if !ok {
		return nil
	}
	for _, ch := range info.Channels {
		if !t.Trace.HasChannel(ch) {
			return fmt.Errorf("core: scheme %s requires trace channel %q but the capture carries %v",
				info.Kind, ch, t.Trace.Channels())
		}
	}
	return nil
}

// RunAndCapture runs one benchmark simulation under a timing-neutral
// scheme, returning both the scheme's Result and the captured Timing: the
// timing pass and the first scheme evaluation cost a single core
// simulation, and every further timing-neutral scheme is an EvaluateTiming
// replay over the returned Timing. The trace records the channels the
// scheme's registry entry requires; extra names additional channels to
// record so the Timing can also serve schemes with richer channel needs.
func (s *Simulator) RunAndCapture(ctx context.Context, name string, kind SchemeKind, maxInsts uint64, extra ...string) (*Result, *Timing, error) {
	if !TimingNeutral(kind) {
		return nil, nil, fmt.Errorf("core: scheme %v changes timing; capture requires a timing-neutral scheme", kind)
	}
	scheme, err := s.makeScheme(kind)
	if err != nil {
		return nil, nil, err
	}
	src, prepare, err := s.benchSources(name, maxInsts)
	if err != nil {
		return nil, nil, err
	}
	channels := SchemeChannels(kind)
	for _, ch := range extra {
		dup := false
		for _, have := range channels {
			if have == ch {
				dup = true
			}
		}
		if !dup {
			channels = append(channels, ch)
		}
	}
	return s.runCapture(ctx, src, prepare, scheme, true, channels)
}

// CaptureBenchmark runs the timing pass alone (under the no-gating
// baseline) and returns the Timing for later evaluation passes. extra
// names trace channels to record beyond the usage channel, so the Timing
// can serve channel-requiring schemes (usagetrace.ChannelLatchValue for
// the ddcg family).
func (s *Simulator) CaptureBenchmark(name string, maxInsts uint64, extra ...string) (*Timing, error) {
	return s.CaptureBenchmarkContext(context.Background(), name, maxInsts, extra...)
}

// CaptureBenchmarkContext is CaptureBenchmark with cancellation.
func (s *Simulator) CaptureBenchmarkContext(ctx context.Context, name string, maxInsts uint64, extra ...string) (*Timing, error) {
	_, tm, err := s.RunAndCapture(ctx, name, SchemeNone, maxInsts, extra...)
	return tm, err
}

// EvaluateTiming replays a captured timing through a timing-neutral
// scheme and a fresh power accountant: the evaluation pass. The replay
// feeds each cycle's issue events to the scheme and each usage vector to
// the accountant in the core's delivery order, so schedules, gating
// decisions, and energy integrate exactly as in a direct run — the
// Result's power metrics are bit-identical (a golden test enforces this).
func (s *Simulator) EvaluateTiming(t *Timing, kind SchemeKind) (*Result, error) {
	if !TimingNeutral(kind) {
		return nil, fmt.Errorf("core: scheme %v changes timing and cannot be evaluated by replay", kind)
	}
	scheme, err := s.makeScheme(kind)
	if err != nil {
		return nil, err
	}
	return s.EvaluateTimingScheme(t, scheme)
}

// EvaluateTimingScheme is EvaluateTiming with a caller-provided scheme
// (partial-DCG ablations). The scheme must be timing-neutral — fresh,
// never throttling, deriving state only from the events and usage vectors
// it is fed; a scheme whose Limits matter would have produced a different
// trace.
func (s *Simulator) EvaluateTimingScheme(t *Timing, scheme gating.Scheme) (*Result, error) {
	if t == nil || t.Trace == nil {
		return nil, fmt.Errorf("core: evaluation requires a captured timing trace")
	}
	if err := checkTraceChannels(t, scheme); err != nil {
		return nil, err
	}
	model, err := power.NewModel(t.Machine)
	if err != nil {
		return nil, err
	}
	var obsChain cpu.Observer
	if s.Telemetry != nil {
		scheme = gating.Observed{Scheme: scheme, OnGates: s.Telemetry.OnGates}
		obsChain = cpu.MultiObserver{s.Telemetry}
	}
	acct := power.NewAccountant(model, scheme)
	acct.LeakageFrac = s.LeakageFrac
	if mo, ok := obsChain.(cpu.MultiObserver); ok {
		obsChain = append(mo, acct)
	} else {
		obsChain = acct
	}
	rd, err := t.Trace.Reader()
	if err != nil {
		return nil, err
	}
	cycles, err := usagetrace.ReplayAll(rd, usagetrace.Sink{Issue: scheme, Cycle: obsChain})
	if err != nil {
		return nil, err
	}
	if cycles != t.CPUStats.Cycles {
		return nil, fmt.Errorf("core: trace replays %d cycles but timing ran %d", cycles, t.CPUStats.Cycles)
	}
	if err := acct.Validate(); err != nil {
		return nil, err
	}
	return resultFor(t, scheme, model, acct), nil
}

func utilization(m config.Config, st *cpu.Stats) Utilization {
	cyc := float64(st.Cycles)
	if cyc == 0 {
		return Utilization{}
	}
	intUnits := float64(m.FU.IntALU + m.FU.IntMult)
	fpUnits := float64(m.FU.FPALU + m.FU.FPMult)
	latchSlots := float64(m.IssueWidth * st.LatchStages)
	return Utilization{
		IntUnits:  float64(st.FUBusyCycles[cpu.FUIntALU]+st.FUBusyCycles[cpu.FUIntMult]) / (intUnits * cyc),
		FPUnits:   float64(st.FUBusyCycles[cpu.FUFPALU]+st.FUBusyCycles[cpu.FUFPMult]) / (fpUnits * cyc),
		Latches:   float64(st.LatchSlotFlow) / (latchSlots * cyc),
		DPorts:    float64(st.DPortCycles) / (float64(m.DL1.Ports) * cyc),
		ResultBus: float64(st.ResultBusBusy) / (float64(m.IssueWidth) * cyc),
	}
}

// stallStack classifies the run's cycles. The classes overlap in the raw
// counters (a cycle can be both window-full and fetch-stalled); precedence
// here is fetch bubbles, then window pressure, matching how CPI stacks are
// conventionally attributed.
func stallStack(st *cpu.Stats) StallStack {
	cyc := float64(st.Cycles)
	if cyc == 0 {
		return StallStack{}
	}
	idle := float64(st.Cycles - min64(st.Cycles, st.IssueCycles))
	fetch := float64(st.StallResolve + st.StallICache)
	empty := float64(st.RobEmpty)
	full := float64(st.RobFullStall + st.LSQFullStall)
	// Normalise the overlapping attributions into the idle budget.
	total := fetch + empty + full
	if total > idle && total > 0 {
		scale := idle / total
		fetch *= scale
		empty *= scale
		full *= scale
	}
	other := idle - fetch - empty - full
	if other < 0 {
		other = 0
	}
	return StallStack{
		Busy:        1 - idle/cyc,
		FetchBubble: fetch / cyc,
		WindowEmpty: empty / cyc,
		WindowStall: full / cyc,
		Other:       other / cyc,
	}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Benchmarks returns the built-in benchmark names (integer suite first).
func Benchmarks() []string { return workload.Names() }

// IntBenchmarks returns the integer-suite benchmark names.
func IntBenchmarks() []string { return workload.IntNames() }

// FPBenchmarks returns the FP-suite benchmark names.
func FPBenchmarks() []string { return workload.FPNames() }
