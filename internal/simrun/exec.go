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
//	level 1 (timings):  (workload, machine) → captured timing trace
//	level 1 (families): (workload, machine, family leader) → one core
//	                    pass's Results, one per member that rode it
//	level 2 (results):  (workload, machine, scheme) → evaluated Result
//
// A request for a timing-neutral scheme (none, dcg, oracle, lector, ddcg,
// dcg+ddcg — anything that cannot perturb the core's cycle-by-cycle
// behaviour, as core.TimingNeutral reports) first consults the result
// cache, then the timing cache: on a timing hit the scheme is evaluated by
// replaying the cached trace on the packed kernel (core.EvaluateTimingAll),
// which skips the cycle-accurate core entirely. On a timing miss the
// capture records the run, building the trace's packed view as it goes,
// and Capture hands back the kernel's evaluation of the requested scheme
// on that view with the Timing, so the call that captured needs no
// replay of its own.
//
// Schemes that do perturb timing (the PLB variants throttle issue width
// from IPC feedback) bypass the timing level and run the full
// simulation, resolved through the family level: the members of a
// timing family (core.TimingFamily — plb-ext and dcg+plb throttle the
// core identically) share one entry there, keyed by the leader's Key.
// The first request for any member runs Full, which carries every member
// as a lane of one live pass and returns them as the Result's Riders;
// the family level detaches them and keeps the pass's Results, so a
// concurrent request for another member coalesces on the pass and a
// later one hits it. A member is stored under its own key only when it
// is requested, and nothing cached, stored or served carries riders. A
// Full that returns no riders leaves each other member to its own call.
//
// Every level coalesces concurrent identical requests, so a burst of
// scheme evaluations for one workload performs exactly one timing pass,
// and a burst over one timing family exactly one full pass.
type Exec struct {
	results  *Cache[Key, *core.Result]
	timings  *Cache[TimingKey, *core.Timing]
	families *Cache[Key, []*core.Result]

	// Full runs the complete simulation (timing + live scheme): the
	// key's Result, carrying as Riders the Results of the other members
	// of its timing family that rode the same core pass. Capture records
	// a trace of the timing pass and returns it with the key's scheme
	// evaluated on it; Evaluate replays a trace under a scheme. Exported
	// as seams so tests can count or fake executions; NewExec installs
	// the production implementations.
	Full     func(ctx context.Context, k Key) (*core.Result, error)
	Capture  func(ctx context.Context, k Key) (*core.Result, *core.Timing, error)
	Evaluate func(k Key, t *core.Timing) (*core.Result, error)

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
// result cache and the family level, timingCap the timing cache; <= 0
// means unbounded. Timing traces are megabytes each (vs kilobytes per
// result), so serving deployments should keep timingCap small.
func NewExec(resultCap, timingCap int) *Exec {
	return &Exec{
		results:  NewCache[Key, *core.Result](resultCap),
		timings:  NewCache[TimingKey, *core.Timing](timingCap),
		families: NewCache[Key, []*core.Result](resultCap),
		Full:     Run,
		Capture:  Capture,
		Evaluate: Evaluate,
	}
}

// NewSingleLevelExec builds an executor with no timing cache and no
// family level: every miss calls run. It preserves the old one-level
// behaviour for callers that inject a custom runner (the server's test
// seam).
func NewSingleLevelExec(resultCap int, run func(ctx context.Context, k Key) (*core.Result, error)) *Exec {
	return &Exec{
		results: NewCache[Key, *core.Result](resultCap),
		Full:    run,
	}
}

// Do returns the result for k, reusing every cache level. The outcome
// reports how the call was served: OutcomeHit/OutcomeCoalesced from the
// result cache or from another family member's full pass,
// OutcomeReplayed when a cached timing trace was replayed, OutcomeMiss
// when a full simulation (or capture) ran.
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
	fromStore := false
	if e.timings == nil || !core.TimingNeutral(k.Scheme) {
		fullOut := OutcomeMiss
		res, out, err := e.results.Do(ctx, k, func(ctx context.Context) (*core.Result, error) {
			if r, ok := e.storeResult(ctx, k); ok {
				fromStore = true
				return r, nil
			}
			r, o, err := e.full(ctx, k)
			fullOut = o
			if err == nil && e.Store != nil {
				e.Store.PutResult(ctx, k, r)
			}
			return r, err
		})
		if err == nil && out == OutcomeMiss {
			out = fullOut
			if fromStore {
				out = OutcomeStore
			}
		}
		return res, out, err
	}
	replayed := false
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
		tm, _, err := e.timings.Do(ctx, k.TimingKey(), func(ctx context.Context) (*core.Timing, error) {
			if t, ok := e.storeTiming(ctx, k.TimingKey()); ok {
				return t, nil
			}
			_, sp := obs.StartSpan(ctx, "sim.capture")
			sp.SetAttr("bench", k.Bench)
			sp.SetAttrInt("insts", int64(k.Insts))
			sp.SetAttr("channels", k.TimingKey().Channels)
			start := time.Now()
			// Only a store reads a trace's encoded bytes, so without one
			// the capture builds the packed view alone.
			store := e.Store
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
					store.PutTiming(ctx, k.TimingKey(), t)
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

// full resolves a full-run key through the family level: the pass that
// answers it is the one its family's entry holds, run now by this call
// (OutcomeMiss), in flight for another member (OutcomeCoalesced) or
// already done (OutcomeHit). A pass that did not carry k — a Full that
// returns no riders — leaves k to a Full call of its own.
func (e *Exec) full(ctx context.Context, k Key) (*core.Result, Outcome, error) {
	if e.families == nil {
		r, err := e.runFull(ctx, k)
		return r, OutcomeMiss, err
	}
	members, out, err := e.families.Do(ctx, k.FamilyKey(), func(ctx context.Context) ([]*core.Result, error) {
		r, err := e.runFull(ctx, k)
		if err != nil {
			return nil, err
		}
		// The Result Full returns is the Exec's to detach.
		members := append([]*core.Result{r}, r.Riders...)
		r.Riders = nil
		return members, nil
	})
	if err != nil {
		return nil, out, err
	}
	if out == OutcomeMiss {
		return members[0], out, nil // this call's own pass: Full(k) leads
	}
	for _, r := range members {
		if r.Scheme == k.Scheme.String() {
			return r, out, nil
		}
	}
	r, err := e.runFull(ctx, k)
	return r, OutcomeMiss, err
}

// runFull runs Full under a sim.full span whose family attribute lists
// the schemes the pass produced Results for.
func (e *Exec) runFull(ctx context.Context, k Key) (*core.Result, error) {
	_, sp := obs.StartSpan(ctx, "sim.full")
	sp.SetAttr("bench", k.Bench)
	sp.SetAttr("scheme", k.Scheme.String())
	r, err := e.Full(ctx, k)
	if err == nil && sp != nil {
		family := r.Scheme
		for _, rider := range r.Riders {
			family += "," + rider.Scheme
		}
		sp.SetAttr("family", family)
	}
	sp.SetError(err)
	sp.Finish()
	return r, err
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

// storeTiming consults the persistent tier for a captured timing trace.
func (e *Exec) storeTiming(ctx context.Context, k TimingKey) (*core.Timing, bool) {
	if e.Store == nil {
		return nil, false
	}
	t, ok := e.Store.GetTiming(ctx, k)
	if ok {
		if lg := obs.Logger(ctx); lg.Enabled(ctx, slog.LevelDebug) {
			lg.Debug("simrun: timing from store", "bench", k.Bench, "insts", k.Insts)
		}
	}
	return t, ok
}

// Get returns the memoised result for k without executing anything.
func (e *Exec) Get(k Key) (*core.Result, bool) {
	return e.results.Get(k)
}

// ResultStats snapshots the result-level cache counters.
func (e *Exec) ResultStats() Stats { return e.results.Stats() }

// TimingStats snapshots the timing-level cache counters. Misses count
// core timing simulations actually executed; hits and coalesced count
// evaluations that shared a previously captured trace. Zero-valued when
// the executor is single-level.
func (e *Exec) TimingStats() Stats {
	if e.timings == nil {
		return Stats{}
	}
	return e.timings.Stats()
}
