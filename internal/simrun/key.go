// Package simrun is the shared simulation-run layer: canonical keys
// identifying deterministic simulation work, executors that run it, and
// sharded, request-coalescing LRU caches over the completed values.
//
// Both batch users (internal/experiments' figure harnesses) and the
// serving layer (internal/server) memoise runs through this package, so a
// simulation configuration is only ever executed once per process no
// matter how many experiments or concurrent requests ask for it. The
// two-level Exec goes further: timing-neutral gating schemes (none, dcg,
// oracle, lector, ddcg, dcg+ddcg) share one cycle-accurate timing capture
// per (workload, machine, trace channels) and differ only in a cheap
// trace replay.
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
// channel set the scheme requires: it identifies the core timing
// simulation alone. Every timing-neutral scheme with the same channel
// needs evaluated on the same workload and machine shares one TimingKey
// — and therefore one captured trace in the Exec's timing cache. The
// channel set stays part of the key so a usage-only capture (including
// every pre-channel v1 artifact in a persistent store) is never served
// to a value-dependent scheme.
func (k Key) TimingKey() TimingKey {
	return TimingKey{
		Bench: k.Bench, Deep: k.Deep, IntALU: k.IntALU, Insts: k.Insts, Warmup: k.Warmup,
		Channels: core.ChannelKey(core.SchemeChannels(k.Scheme)),
	}
}

// TimingKey identifies one cycle-accurate timing pass: the workload, the
// machine's timing-relevant configuration, and the captured trace's
// extra channel set (canonical comma-joined form; "" = usage only) —
// with no gating scheme. (Timing-neutral schemes do not perturb timing,
// so they never appear here; PLB does and is excluded from the timing
// cache entirely.)
type TimingKey struct {
	Bench    string
	Deep     bool
	IntALU   int
	Insts    uint64
	Warmup   uint64
	Channels string
}

// Machine returns the processor configuration the timing key selects.
func (k TimingKey) Machine() config.Config {
	return Key{Bench: k.Bench, Deep: k.Deep, IntALU: k.IntALU, Insts: k.Insts, Warmup: k.Warmup}.Machine()
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func fnvWords(h uint64, words ...uint64) uint64 {
	for _, v := range words {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= fnvPrime
		}
	}
	return h
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Hash mixes every field FNV-1a style; the cache uses it to pick a shard.
func (k Key) Hash() uint64 {
	h := fnvString(fnvOffset, k.Bench)
	h = fnvString(h, string(k.Scheme))
	return fnvWords(h, boolWord(k.Deep), uint64(k.IntALU), k.Insts, k.Warmup)
}

// Hash mixes every field FNV-1a style; the cache uses it to pick a shard.
func (k TimingKey) Hash() uint64 {
	h := fnvString(fnvOffset, k.Bench)
	h = fnvString(h, k.Channels)
	return fnvWords(h, boolWord(k.Deep), uint64(k.IntALU), k.Insts, k.Warmup)
}

func simulatorFor(m config.Config, warmup uint64) *core.Simulator {
	sim := core.NewSimulator(m)
	if warmup > 0 {
		sim.Warmup = warmup
	}
	return sim
}

// Run executes the full simulation the key identifies: core timing with
// the scheme attached live. The context is threaded into the cycle loop:
// cancellation aborts the run within a few thousand simulated cycles.
func Run(ctx context.Context, k Key) (*core.Result, error) {
	return simulatorFor(k.Machine(), k.Warmup).RunBenchmarkContext(ctx, k.Bench, k.Scheme, k.Insts)
}

// Capture executes the timing simulation the key identifies while
// recording its per-cycle usage trace. The returned Result is the
// evaluation of k.Scheme riding along on the capture run (bit-identical
// to a direct run); the Timing can then be replayed for any other
// timing-neutral scheme. Fails for schemes that perturb timing.
func Capture(ctx context.Context, k Key) (*core.Result, *core.Timing, error) {
	return simulatorFor(k.Machine(), k.Warmup).RunAndCapture(ctx, k.Bench, k.Scheme, k.Insts)
}

// Evaluate replays a captured timing trace under the key's scheme. The
// result is bit-identical to a full run with the same key. A
// packed-capable scheme reads the trace's memoized packed view, so every
// such Evaluate against the same *core.Timing — coalesced requests,
// batch items, sweep followers — shares one decode; a scalar-only scheme
// streams the encoded bytes.
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
	sim := simulatorFor(k.Machine(), k.Warmup)
	sim.Telemetry = tel
	return sim.RunBenchmarkContext(ctx, k.Bench, k.Scheme, k.Insts)
}
