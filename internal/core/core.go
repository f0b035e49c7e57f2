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
	"slices"
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
// It reads only the Result's energy and all-on vectors, so replayed and
// direct results agree bit for bit.
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

	// Warmup is the number of instructions functionally streamed through
	// the caches and branch predictor before the measured region starts
	// (the stand-in for the paper's 2-billion-instruction fast-forward).
	Warmup uint64

	// LeakageFrac extends the paper's zero-leakage accounting: gated
	// structures still burn this fraction of their dynamic power.
	// Default 0, as in the paper (section 4.2).
	LeakageFrac float64
}

// RunTelemetry observes a live run's measured region: the usage stream
// (before the power accountant) plus each cycle's gating decision, through
// a gating.Observed wrapper around the run's scheme. The wrapper takes no
// runs of quiet cycles, so a run with telemetry steps every cycle instead
// of fast-forwarding. Implementations must follow the cpu.Observer
// contract (the Usage buffer is reused; never retain it) and must not
// mutate the GateState's slices. The obs package's PipelineRecorder
// implements it; dcgsim -trace-out and the server's /v1/trace endpoint
// hand one to RunBenchmarkTelemetry.
type RunTelemetry interface {
	cpu.Observer
	OnGates(cycle uint64, gs power.GateState)
}

// DefaultWarmup is the default functional warm-up length.
const DefaultWarmup = 200_000

// NewSimulator builds a simulator for the given machine.
func NewSimulator(machine config.Config) *Simulator {
	return &Simulator{
		machine: machine,
		Warmup:  DefaultWarmup,
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
// For every registered scheme this gives the Result RunAndCapture gives —
// a capture, under the scheme's throttle for the PLB family, and then an
// evaluation of the captured Timing on the packed kernel — in a single
// live pass with the scheme attached; the goldens hold the two paths
// bit-identical, and this one is their reference.
func (s *Simulator) RunBenchmarkContext(ctx context.Context, name string, kind SchemeKind, maxInsts uint64) (*Result, error) {
	return s.RunBenchmarkTelemetry(ctx, name, kind, maxInsts, nil)
}

// RunBenchmarkTelemetry is RunBenchmarkContext with tel, when non-nil,
// observing the run's measured region.
func (s *Simulator) RunBenchmarkTelemetry(ctx context.Context, name string, kind SchemeKind, maxInsts uint64, tel RunTelemetry) (*Result, error) {
	scheme, err := s.makeScheme(kind)
	if err != nil {
		return nil, err
	}
	src, prepare, err := s.benchSources(name, maxInsts)
	if err != nil {
		return nil, err
	}
	return s.run(ctx, src, prepare, scheme, tel)
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
	return s.run(context.Background(), src, prepare, scheme, nil)
}

// RunStream warms the machine on the stream's first Warmup instructions,
// then measures the next maxInsts (for custom trace.Sources that should be
// treated like benchmarks).
func (s *Simulator) RunStream(src trace.Source, kind SchemeKind, maxInsts uint64) (*Result, error) {
	scheme, err := s.makeScheme(kind)
	if err != nil {
		return nil, err
	}
	warm := func(c *cpu.Core) { c.Warm(trace.NewLimitSource(src, s.Warmup), ^uint64(0)) }
	return s.run(context.Background(), trace.NewLimitSource(src, maxInsts), warm, scheme, nil)
}

// RunSource simulates the given instruction source to exhaustion under the
// given scheme, with no warm-up pass; use RunBenchmark for warmed runs.
func (s *Simulator) RunSource(src trace.Source, kind SchemeKind) (*Result, error) {
	scheme, err := s.makeScheme(kind)
	if err != nil {
		return nil, err
	}
	return s.run(context.Background(), src, nil, scheme, nil)
}

// Timing is the product of one timing pass: everything a simulation run
// determines about the machine's cycle-by-cycle behaviour that does not
// depend on the gating scheme's power accounting. Every scheme whose
// throttle (SchemeInfo.Timing) is the one the capture ran under — none,
// for the timing-neutral schemes — is evaluated from the attached trace
// (EvaluateTimingAll) to the same Result a full simulation gives.
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

	// Throttle names the registered scheme whose throttle drove the
	// capture, empty for none, and PLBModeCycles is that throttle's cycles
	// per issue-width mode (PLB counts a window's decision cycle in the
	// mode it leaves, which the trace's limits do not show). A throttled
	// trace is view-only, since the stream has no field for the limits.
	Throttle      SchemeKind
	PLBModeCycles map[int]uint64
}

// Cycles returns the timing pass's cycle count.
func (t *Timing) Cycles() uint64 { return t.CPUStats.Cycles }

// run simulates src under the scheme, the live path: the scheme is the
// core's throttle and issue listener, and its power accountant observes
// every cycle, so timing and power are evaluated in one pass. It serves
// custom schemes and telemetry, and it is the reference every capture
// and kernel evaluation is held to. tel, when non-nil, observes the run.
func (s *Simulator) run(ctx context.Context, src trace.Source, prepare func(*cpu.Core), scheme gating.Scheme, tel RunTelemetry) (*Result, error) {
	c, err := cpu.New(s.machine, src)
	if err != nil {
		return nil, err
	}
	if tel != nil {
		// Wrap the scheme so every Gates call is reported; lane.result
		// unwraps before its concrete-scheme type switches.
		scheme = gating.Observed{Scheme: scheme, OnGates: tel.OnGates}
	}
	l, err := s.newLane(s.machine, scheme)
	if err != nil {
		return nil, err
	}
	c.SetThrottle(scheme)
	c.SetIssueListener(scheme)
	if tel != nil {
		c.SetObserver(cpu.MultiObserver{tel, l.acct})
	} else {
		c.SetObserver(l.acct)
	}
	tm, err := s.execute(ctx, c, src.Name(), prepare, scheme.Name())
	if err != nil {
		return nil, err
	}
	return l.result(tm)
}

// viewOnlyKey is the context key WithViewOnlyCapture sets.
type viewOnlyKey struct{}

// WithViewOnlyCapture returns ctx marked so that a capture run under it
// (CaptureBenchmarkContext, RunAndCapture) keeps only its trace's packed
// view and encodes no bytes (usagetrace.NewViewRecorder). The Timing
// evaluates on the packed kernel exactly as one with bytes does, but its
// trace cannot be stored, gzipped or re-read: a caller that will persist
// or re-read the trace must not set this. An executor with no store, and
// dcgsim, set it, since nothing they run reads the bytes.
func WithViewOnlyCapture(ctx context.Context) context.Context {
	return context.WithValue(ctx, viewOnlyKey{}, true)
}

// capture simulates the named benchmark with the usagetrace.Recorder as
// the core's only observer and issue listener: no gating scheme and no
// power accountant run. Without a throttle the core runs unthrottled.
// With one, the name of a registered scheme that throttles
// (SchemeInfo.Timing), a fresh instance of it drives the core through the
// Recorder, which sums each cycle's usage under the Limits it returned,
// and the Timing notes its name and mode cycles. The Timing carries the
// trace with its packed view built, ready for EvaluateTimingAll, and its
// encoded bytes unless ctx asks for a view-only capture
// (WithViewOnlyCapture) or the capture is throttled: a throttled trace is
// always view-only. extra names the trace channels to record, once each,
// beyond the implicit usage channel.
func (s *Simulator) capture(ctx context.Context, name string, maxInsts uint64, throttle SchemeKind, extra []string) (*Timing, error) {
	var channels []string
	for _, ch := range extra {
		if !slices.Contains(channels, ch) {
			channels = append(channels, ch)
		}
	}
	var th gating.Scheme
	if throttle != "" {
		var err error
		if th, err = s.makeScheme(throttle); err != nil {
			return nil, err
		}
	}
	src, prepare, err := s.benchSources(name, maxInsts)
	if err != nil {
		return nil, err
	}
	c, err := cpu.New(s.machine, src)
	if err != nil {
		return nil, err
	}
	newRecorder := usagetrace.NewRecorder
	if ctx.Value(viewOnlyKey{}) != nil || th != nil {
		newRecorder = usagetrace.NewViewRecorder
	}
	rec, err := newRecorder(src.Name(), s.machine.BackEndLatchStages(), channels...)
	if err != nil {
		return nil, err
	}
	rec.SetDPorts(s.machine.DL1.Ports)
	if th != nil {
		rec.SetThrottle(th)
		c.SetThrottle(rec)
	}
	c.SetObserver(rec)
	c.SetIssueListener(rec)
	tm, err := s.execute(ctx, c, src.Name(), prepare, "capture")
	if err != nil {
		return nil, err
	}
	if tm.Trace, err = rec.Trace(); err != nil {
		return nil, err
	}
	if th != nil {
		tm.Throttle = throttle
		if plb, ok := th.(interface{ ModeCycles() map[int]uint64 }); ok {
			tm.PLBModeCycles = plb.ModeCycles()
		}
	}
	return tm, nil
}

// execute brings the core to the measured region's start (prepare, when
// non-nil: a warm-up, or a restore of one), runs it until the stream
// drains or ctx is canceled (a caller's timeout is the only backstop),
// and returns the run's Timing, without a trace. what names the run in
// the debug log.
func (s *Simulator) execute(ctx context.Context, c *cpu.Core, bench string, prepare func(*cpu.Core), what string) (*Timing, error) {
	start := time.Now()
	c.SetCancel(ctx.Err)
	if prepare != nil {
		prepare(c)
	}
	if _, err := c.Run(0); err != nil {
		return nil, err
	}
	st := c.Stats()
	if lg := obs.Logger(ctx); lg.Enabled(ctx, slog.LevelDebug) {
		lg.Debug("core: run complete", "bench", bench, "run", what,
			"cycles", st.Cycles, "committed", st.Committed,
			"elapsed_ms", float64(time.Since(start).Microseconds())/1000)
	}
	return &Timing{
		Benchmark:      bench,
		Machine:        s.machine,
		CPUStats:       *st,
		Util:           utilization(s.machine, st),
		Stall:          stallStack(st),
		BranchAccuracy: ratio(st.CondCorrect, st.CondBranches),
		DL1MissRate:    c.Hierarchy().DL1.MissRate(),
		L2MissRate:     c.Hierarchy().L2.MissRate(),
	}, nil
}

// lane is one scheme's evaluation: the machine's power model and an
// accountant integrating the scheme's gating decisions. A live run, each
// scheme of a scalar replay and each packed-kernel tally fill one, so
// every path produces structurally identical Results.
type lane struct {
	scheme gating.Scheme
	model  *power.Model
	acct   *power.Accountant
}

// newLane builds a fresh lane for the scheme on the machine, with the
// simulator's leakage fraction.
func (s *Simulator) newLane(machine config.Config, scheme gating.Scheme) (lane, error) {
	model, err := power.NewModel(machine)
	if err != nil {
		return lane{}, err
	}
	acct := power.NewAccountant(model, scheme)
	acct.LeakageFrac = s.LeakageFrac
	return lane{scheme: scheme, model: model, acct: acct}, nil
}

// result validates the lane's accounting and assembles its Result from
// the timing pass.
func (l lane) result(t *Timing) (*Result, error) {
	if err := l.acct.Validate(); err != nil {
		return nil, fmt.Errorf("core: scheme %s: %w", l.scheme.Name(), err)
	}
	// Telemetry wraps schemes in gating.Observed; the concrete-scheme
	// type switches below need the scheme underneath.
	scheme := gating.UnwrapScheme(l.scheme)
	st := &t.CPUStats
	res := &Result{
		Benchmark:      t.Benchmark,
		Scheme:         scheme.Name(),
		Machine:        t.Machine,
		Cycles:         st.Cycles,
		Committed:      st.Committed,
		IPC:            st.IPC(),
		AvgPower:       l.acct.AvgPower(),
		BaselinePower:  l.model.AllOnPower(),
		Saving:         l.acct.Saving(),
		Energy:         l.acct.Breakdown(),
		CPUStats:       *st,
		Util:           t.Util,
		Stall:          t.Stall,
		BranchAccuracy: t.BranchAccuracy,
		DL1MissRate:    t.DL1MissRate,
		L2MissRate:     t.L2MissRate,
	}
	for c := power.Component(0); c < power.NumComponents; c++ {
		res.fullPerCycle[c] = l.model.PerCycle(c)
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
	res.GateViolations = l.acct.GateViolations
	return res, nil
}

// RunAndCapture captures one benchmark's timing for a registered scheme
// and evaluates the scheme on it: the capture only records (no scheme
// and no power accountant run in the cycle loop; a PLB-family scheme's
// throttle drives the core), and the Result is EvaluateTimingAll's, on
// the packed view the capture built. Every further scheme with the same
// throttle (SchemeInfo.Timing) is one more EvaluateTimingAll over the
// returned Timing. The trace records the channels the scheme's registry
// entry requires; extra names additional channels to record so the
// Timing can also serve schemes with richer channel needs.
func (s *Simulator) RunAndCapture(ctx context.Context, name string, kind SchemeKind, maxInsts uint64, extra ...string) (*Result, *Timing, error) {
	info, ok := SchemeInfoFor(kind)
	if !ok {
		_, err := ParseScheme(string(kind))
		return nil, nil, err
	}
	tm, err := s.capture(ctx, name, maxInsts, info.Timing, append(SchemeChannels(kind), extra...))
	if err != nil {
		return nil, nil, err
	}
	res, err := s.EvaluateTimingAll(tm, []SchemeKind{kind})
	if err != nil {
		return nil, nil, err
	}
	return res[0], tm, nil
}

// CaptureBenchmark runs the timing pass alone and returns the Timing for
// later evaluation passes: the core runs with only the trace Recorder
// attached, and no scheme is evaluated. extra names trace channels to
// record beyond the usage channel, so the Timing can serve
// channel-requiring schemes (usagetrace.ChannelLatchValue for the ddcg
// family); a name given twice is recorded once.
func (s *Simulator) CaptureBenchmark(name string, maxInsts uint64, extra ...string) (*Timing, error) {
	return s.CaptureBenchmarkContext(context.Background(), name, maxInsts, extra...)
}

// CaptureBenchmarkContext is CaptureBenchmark with cancellation.
func (s *Simulator) CaptureBenchmarkContext(ctx context.Context, name string, maxInsts uint64, extra ...string) (*Timing, error) {
	return s.capture(ctx, name, maxInsts, "", extra)
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
