package gating

import (
	"dcg/internal/cpu"
	"dcg/internal/power"
)

// Observed wraps a Scheme and reports every per-cycle gating decision to
// a callback, without perturbing the decision itself. The telemetry
// layer (internal/obs.PipelineRecorder via core.Simulator.Telemetry)
// uses it to record which units each scheme left enabled cycle by
// cycle.
//
// The wrapper is transparent for throttling, issue events, and naming;
// only Gates is intercepted. Callers that type-switch on the concrete
// scheme (the core does, for PLB mode counters and DCG violation
// counts) must unwrap first via Unwrap. It implements neither
// cpu.QuietThrottle nor power.QuietGater, so a telemetry run steps every
// cycle and OnGates sees each one.
type Observed struct {
	Scheme

	// OnGates receives each cycle's decision after the wrapped scheme
	// produced it. The GateState follows the usual ownership contract:
	// its slices must not be written, but may be read during the call.
	OnGates func(cycle uint64, gs power.GateState)
}

// Gates implements power.Gater: delegate, then report.
func (o Observed) Gates(cycle uint64, u *cpu.Usage) power.GateState {
	gs := o.Scheme.Gates(cycle, u)
	if o.OnGates != nil {
		o.OnGates(cycle, gs)
	}
	return gs
}

// Unwrap returns the underlying scheme.
func (o Observed) Unwrap() Scheme { return o.Scheme }

// UnwrapScheme peels any Observed layers off a scheme, returning the
// concrete scheme underneath.
func UnwrapScheme(s Scheme) Scheme {
	for {
		o, ok := s.(Observed)
		if !ok {
			return s
		}
		s = o.Scheme
	}
}
