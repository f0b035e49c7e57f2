package simrun

import (
	"context"
	"log/slog"
	"time"

	"dcg/internal/core"
	"dcg/internal/obs"
)

// Exec is the two-level simulation executor:
//
//	level 1 (timings): (workload, machine, channels, throttle) → captured
//	                   timing trace
//	level 2 (results): (workload, machine, scheme) → evaluated Result
//
// A request for any registered scheme first consults the result cache,
// then the timing cache under its TimingKey: on a timing hit the scheme
// is evaluated on the cached trace's packed view by the packed kernel
// (core.EvaluateTimingAll), which skips the cycle-accurate core
// entirely. On a timing miss the capture records the run, building the
// trace's packed view as it goes, and Capture hands back the kernel's
// evaluation of the requested scheme on that view with the Timing, so
// the call that captured needs no evaluation of its own.
//
// The timing-neutral schemes (none, dcg, oracle, lector, ddcg, dcg+ddcg —
// anything that cannot perturb the core's cycle-by-cycle behaviour, as
// core.TimingNeutral reports) share unthrottled captures. The PLB family
// throttles issue width from IPC feedback, so its captures run under a
// throttle (core.SchemeInfo.Timing): plb-ext and dcg+plb throttle the
// core identically and share plb-ext's capture, and plb-orig has its
// own. A throttled trace carries no encoded bytes, so it is cached in
// memory only, never read from or written to the store; its Results are
// stored as every other scheme's are.
//
// Every level coalesces concurrent identical requests, so a burst of
// scheme evaluations for one TimingKey performs exactly one timing pass.
type Exec struct {
	results *Cache[Key, *core.Result]
	timings *Cache[TimingKey, *core.Timing]

	// Capture records a trace of the timing pass and returns it with the
	// key's scheme evaluated on it; Evaluate evaluates a scheme on a
	// trace. Exported as seams so tests can count or fake executions and
	// the server can wrap them in its worker pool; NewExec installs the
	// production implementations.
	Capture  func(ctx context.Context, k Key) (*core.Result, *core.Timing, error)
	Evaluate func(k Key, t *core.Timing) (*core.Result, error)

	// Full is read by nothing: the executor never calls it, and NewExec
	// installs none. It stays only because the benchmark module's tracing
	// executor assigns it; ROADMAP item M deletes it with that wrapper.
	Full func(ctx context.Context, k Key) (*core.Result, error)

	// Store is an optional persistent tier (internal/store) consulted
	// underneath both in-memory levels: a result-cache miss first asks the
	// store before simulating, a timing-cache miss first asks the store
	// before capturing, and every freshly computed result/timing is
	// written back. Attaching a store is what makes a restarted process
	// warm. Nil disables the tier, and then a capture keeps only its
	// trace's packed view, with no encoded bytes (core.WithViewOnlyCapture):
	// the store is the only reader of the bytes. The field is read at each
	// capture, so a store attached after NewExec takes effect.
	Store PersistentTier
}

// PersistentTier is a durable artifact layer underneath the in-memory
// caches. Implementations must be safe for concurrent use; Get misses and
// Put failures are expected to be absorbed internally (logged/counted),
// never surfaced as request errors — the tier is an accelerator, not a
// source of truth. The context carries observability state (logger,
// trace span) and, for a future remote tier, cancellation; it must not
// change which artifact a key maps to.
type PersistentTier interface {
	GetResult(ctx context.Context, k Key) (*core.Result, bool)
	PutResult(ctx context.Context, k Key, r *core.Result)
	GetTiming(ctx context.Context, k TimingKey) (*core.Timing, bool)
	PutTiming(ctx context.Context, k TimingKey, t *core.Timing)
}

// NewExec builds the production two-level executor. resultCap bounds the
// result cache, timingCap the timing cache; <= 0 means unbounded. Timing
// traces are megabytes each (vs kilobytes per result), so serving
// deployments should keep timingCap small.
func NewExec(resultCap, timingCap int) *Exec {
	return &Exec{
		results:  NewCache[Key, *core.Result](resultCap),
		timings:  NewCache[TimingKey, *core.Timing](timingCap),
		Capture:  Capture,
		Evaluate: Evaluate,
	}
}

// Do returns the result for k, reusing every cache level. The outcome
// reports how the call was served: OutcomeHit/OutcomeCoalesced from the
// result cache, OutcomeReplayed when a cached or another request's
// timing trace was evaluated, OutcomeStore when the persistent tier held
// the result, OutcomeMiss when a capture ran. A scheme the registry does
// not know fails before any cache is consulted.
func (e *Exec) Do(ctx context.Context, k Key) (*core.Result, Outcome, error) {
	// The lookup span covers the whole two-level resolution; its outcome
	// attribute is the cache-lookup verdict (cache/coalesced/replayed/
	// store/simulated). Stage spans below attribute where the time went.
	ctx, sp := obs.StartSpan(ctx, "simrun.lookup")
	sp.SetAttr("bench", k.Bench)
	sp.SetAttr("scheme", k.Scheme.String())
	sp.SetAttrInt("insts", int64(k.Insts))
	res, out, err := e.do(ctx, k)
	sp.SetAttr("outcome", out.String())
	sp.SetError(err)
	sp.Finish()
	if lg := obs.Logger(ctx); lg.Enabled(ctx, slog.LevelDebug) {
		attrs := []any{
			"bench", k.Bench, "scheme", k.Scheme.String(), "insts", k.Insts,
			"outcome", out.String(),
		}
		if err != nil {
			attrs = append(attrs, "err", err)
		}
		lg.Debug("simrun: do", attrs...)
	}
	return res, out, err
}

// do is Do without the logging wrapper.
func (e *Exec) do(ctx context.Context, k Key) (*core.Result, Outcome, error) {
	// An unknown scheme would share a TimingKey with the neutral ones and
	// fail the capture another request coalesced on.
	if _, err := core.ParseScheme(string(k.Scheme)); err != nil {
		return nil, OutcomeMiss, err
	}
	tk := k.TimingKey()
	// A throttled trace has no bytes: it is neither read from nor written
	// to the store.
	store := e.Store
	if tk.Throttle != "" {
		store = nil
	}
	fromStore, replayed := false, false
	res, out, err := e.results.Do(ctx, k, func(ctx context.Context) (*core.Result, error) {
		if r, ok := e.storeResult(ctx, k); ok {
			fromStore = true
			return r, nil
		}
		// inline carries the capture's evaluation out of the timing-level
		// closure: when this call is the one that executes the capture,
		// Capture already evaluated the requested scheme and no replay
		// is needed. When the timing level hits (or coalesces with
		// another scheme's capture), inline stays nil and we replay.
		lg := obs.Logger(ctx)
		var inline *core.Result
		tm, _, err := e.timings.Do(ctx, tk, func(ctx context.Context) (*core.Timing, error) {
			if store != nil {
				if t, ok := store.GetTiming(ctx, tk); ok {
					lg.Debug("simrun: timing from store", "bench", k.Bench, "insts", k.Insts)
					return t, nil
				}
			}
			_, sp := obs.StartSpan(ctx, "sim.capture")
			sp.SetAttr("bench", k.Bench)
			sp.SetAttrInt("insts", int64(k.Insts))
			sp.SetAttr("channels", tk.Channels)
			if tk.Throttle != "" {
				sp.SetAttr("throttle", tk.Throttle.String())
			}
			start := time.Now()
			// Only a store reads a trace's encoded bytes, so without one
			// the capture builds the packed view alone.
			cctx := ctx
			if store == nil {
				cctx = core.WithViewOnlyCapture(ctx)
			}
			r, t, err := e.Capture(cctx, k)
			inline = r
			sp.SetError(err)
			if err == nil {
				size := traceBytes(t)
				if size > 0 {
					sp.SetAttrInt("trace_bytes", int64(size))
				}
				sp.Finish()
				if store != nil {
					store.PutTiming(ctx, tk, t)
				}
				if lg.Enabled(ctx, slog.LevelDebug) {
					attrs := []any{"bench", k.Bench, "insts", k.Insts}
					if size > 0 {
						attrs = append(attrs, "trace_bytes", size)
					}
					lg.Debug("simrun: timing captured", append(attrs,
						"elapsed_ms", float64(time.Since(start).Microseconds())/1000)...)
				}
			} else {
				sp.Finish()
			}
			return t, err
		})
		if err != nil {
			return nil, err
		}
		if inline != nil {
			if e.Store != nil {
				e.Store.PutResult(ctx, k, inline)
			}
			return inline, nil
		}
		replayed = true
		rctx, sp := obs.StartSpan(ctx, "sim.replay")
		sp.SetAttr("bench", k.Bench)
		sp.SetAttr("scheme", k.Scheme.String())
		if sp != nil && tm.Trace != nil {
			// Every replay reads the decoded view, and Decode is memoized
			// per trace, so forcing it here only moves the evaluation's
			// decode under its own span: a fresh decode shows up as
			// milliseconds, a reuse as nanoseconds. Skipped entirely when
			// tracing is off.
			_, dsp := obs.StartSpan(rctx, "trace.decode")
			if size := tm.Trace.SizeBytes(); size > 0 {
				dsp.SetAttrInt("trace_bytes", int64(size))
			}
			_, derr := tm.Trace.Decode()
			dsp.SetError(derr)
			dsp.Finish()
		}
		start := time.Now()
		res, err := e.Evaluate(k, tm)
		sp.SetError(err)
		sp.Finish()
		if err == nil {
			if e.Store != nil {
				e.Store.PutResult(ctx, k, res)
			}
			if lg.Enabled(ctx, slog.LevelDebug) {
				lg.Debug("simrun: trace replayed", "bench", k.Bench,
					"scheme", k.Scheme.String(),
					"elapsed_ms", float64(time.Since(start).Microseconds())/1000)
			}
		}
		return res, err
	})
	if err == nil && out == OutcomeMiss {
		switch {
		case fromStore:
			out = OutcomeStore
		case replayed:
			out = OutcomeReplayed
		}
	}
	return res, out, err
}

// traceBytes is the encoded size of t's trace: 0 for a view-only
// capture, and for a Timing without a trace (a test seam's).
func traceBytes(t *core.Timing) int {
	if t.Trace == nil {
		return 0
	}
	return t.Trace.SizeBytes()
}

// storeResult consults the persistent tier for a finished result.
func (e *Exec) storeResult(ctx context.Context, k Key) (*core.Result, bool) {
	if e.Store == nil {
		return nil, false
	}
	r, ok := e.Store.GetResult(ctx, k)
	if ok {
		if lg := obs.Logger(ctx); lg.Enabled(ctx, slog.LevelDebug) {
			lg.Debug("simrun: result from store", "bench", k.Bench, "scheme", k.Scheme.String())
		}
	}
	return r, ok
}

// Get returns the memoised result for k without executing anything.
func (e *Exec) Get(k Key) (*core.Result, bool) {
	return e.results.Get(k)
}

// ResultStats snapshots the result-level cache counters.
func (e *Exec) ResultStats() Stats { return e.results.Stats() }

// TimingStats snapshots the timing-level cache counters. Misses count
// core timing simulations actually executed; hits and coalesced count
// evaluations that shared a previously captured trace.
func (e *Exec) TimingStats() Stats { return e.timings.Stats() }
