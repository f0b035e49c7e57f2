// Package simrun is the shared simulation-run layer: canonical keys
// identifying deterministic simulation work, executors that run it, and
// request-coalescing LRU caches over the completed values.
//
// Both batch users (internal/experiments' figure harnesses) and the
// serving layer (internal/server) memoise runs through this package, so a
// simulation configuration is only ever executed once per process no
// matter how many experiments or concurrent requests ask for it. The
// two-level Exec goes further: the gating schemes that share a capture
// throttle share one cycle-accurate timing capture per (workload,
// machine, trace channels, throttle) and differ only in a cheap
// evaluation on the packed kernel — the timing-neutral schemes (none,
// dcg, oracle, lector, ddcg, dcg+ddcg) an unthrottled capture, plb-ext
// and dcg+plb one under plb-ext's throttle, and plb-orig one under its
// own.
package simrun

import (
	"context"

	"dcg/internal/config"
	"dcg/internal/core"
)

// Key identifies one deterministic simulation result. Two runs with equal
// keys produce identical Results (the simulator is fully deterministic),
// which is what makes memoisation and request coalescing sound.
type Key struct {
	// Bench is the built-in benchmark name.
	Bench string

	// Scheme is the clock-gating methodology.
	Scheme core.SchemeKind

	// Deep selects the 20-stage pipeline of section 5.6.
	Deep bool

	// IntALU overrides the integer-ALU count when > 0 (section 4.4 sweep).
	IntALU int

	// Insts is the measured dynamic instruction count.
	Insts uint64

	// Warmup is the functional warm-up length (0 = simulator default).
	Warmup uint64
}

// Machine returns the processor configuration the key selects.
func (k Key) Machine() config.Config {
	m := config.Default()
	if k.Deep {
		m = config.Deep()
	}
	if k.IntALU > 0 {
		m.FU.IntALU = k.IntALU
	}
	return m
}

// TimingKey strips the gating scheme from a Key, keeping only the trace
// channel set the scheme requires and its capture throttle
// (core.SchemeInfo.Timing): it identifies the core timing simulation
// alone. Every scheme with the same channel needs and throttle evaluated
// on the same workload and machine shares one TimingKey — and therefore
// one captured trace in the Exec's timing cache. The channel set stays
// part of the key so a usage-only capture (including every pre-channel
// v1 artifact in a persistent store) is never served to a value-dependent
// scheme, and the throttle so a capture only ever serves the schemes its
// throttle shaped.
func (k Key) TimingKey() TimingKey {
	info, _ := core.SchemeInfoFor(k.Scheme)
	return TimingKey{
		Bench: k.Bench, Deep: k.Deep, IntALU: k.IntALU, Insts: k.Insts, Warmup: k.Warmup,
		Channels: core.ChannelKey(core.SchemeChannels(k.Scheme)),
		Throttle: info.Timing,
	}
}

// TimingKey identifies one cycle-accurate timing pass: the workload, the
// machine's timing-relevant configuration, the captured trace's extra
// channel set (canonical comma-joined form; "" = usage only) and the
// registered scheme whose throttle drives the core ("" = none, every
// timing-neutral scheme's) — with no gating scheme. A throttled timing
// is kept in memory only: its trace has no encoded bytes to store.
type TimingKey struct {
	Bench    string
	Deep     bool
	IntALU   int
	Insts    uint64
	Warmup   uint64
	Channels string
	Throttle core.SchemeKind
}

func simulatorFor(m config.Config, warmup uint64) *core.Simulator {
	sim := core.NewSimulator(m)
	if warmup > 0 {
		sim.Warmup = warmup
	}
	return sim
}

// Run executes the full simulation the key identifies: core timing with
// the scheme attached live (core.Simulator.RunBenchmarkContext), the
// reference every capture is held to. The context is threaded into the
// cycle loop: cancellation aborts the run within a few thousand
// simulated cycles.
func Run(ctx context.Context, k Key) (*core.Result, error) {
	return simulatorFor(k.Machine(), k.Warmup).RunBenchmarkContext(ctx, k.Bench, k.Scheme, k.Insts)
}

// Capture executes the timing simulation the key identifies, under the
// scheme's capture throttle when it has one, recording its per-cycle
// usage trace and nothing else, and evaluates k.Scheme on the trace's
// packed view (core.RunAndCapture). The returned Result is the kernel's,
// bit-identical to a direct run; the Timing can then be evaluated for
// any other scheme with the same TimingKey.
func Capture(ctx context.Context, k Key) (*core.Result, *core.Timing, error) {
	return simulatorFor(k.Machine(), k.Warmup).RunAndCapture(ctx, k.Bench, k.Scheme, k.Insts)
}

// Evaluate evaluates the key's scheme on a captured timing trace. The
// result is bit-identical to a full run with the same key. Every scheme
// reads the trace's memoized packed view, so every Evaluate against the
// same *core.Timing — coalesced requests, batch items, sweep followers —
// shares one decode.
func Evaluate(k Key, t *core.Timing) (*core.Result, error) {
	results, err := simulatorFor(t.Machine, k.Warmup).EvaluateTimingAll(t, []core.SchemeKind{k.Scheme})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// RunTelemetry executes the full simulation the key identifies with a
// telemetry observer attached (per-cycle usage vectors and gating
// decisions — the server's /v1/trace endpoint). Telemetry requires a
// live pass, so this path never consults the caches.
func RunTelemetry(ctx context.Context, k Key, tel core.RunTelemetry) (*core.Result, error) {
	return simulatorFor(k.Machine(), k.Warmup).RunBenchmarkTelemetry(ctx, k.Bench, k.Scheme, k.Insts, tel)
}
