// Package server is the simulation-as-a-service layer: an HTTP/JSON
// front end over the deterministic clock-gating simulator.
//
// Request handling is built from three pieces, all shared with the batch
// experiment harnesses through internal/simrun:
//
//   - a bounded worker pool (sized from GOMAXPROCS) that caps how many
//     simulations execute at once, however many requests are in flight;
//   - request coalescing: concurrent requests for the same simulation key
//     execute it exactly once and share the result (singleflight);
//   - a two-level cache (simrun.Exec): a sharded LRU memo over completed
//     results, plus a smaller LRU of captured timing traces. A request
//     for a timing-neutral scheme (none, dcg, oracle) whose workload was
//     already timed is answered by replaying the cached trace — orders of
//     magnitude cheaper than re-running the cycle-accurate core.
//
// Every request carries a deadline; cancellation is threaded into the
// simulator's cycle loop, so abandoned or timed-out requests stop burning
// CPU within a few thousand simulated cycles. Shutdown is graceful:
// Drain flips /healthz to draining (for load-balancer rotation) and
// http.Server.Shutdown then waits for in-flight simulations to finish.
//
// See docs/SERVICE.md for the API reference.
package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"dcg/internal/cluster"
	"dcg/internal/config"
	"dcg/internal/core"
	"dcg/internal/obs"
	"dcg/internal/simrun"
	"dcg/internal/store"
	"dcg/internal/sweep"
	"dcg/internal/workload"
)

// Config tunes the service. The zero value gets sensible defaults.
type Config struct {
	// Workers bounds concurrently executing simulations.
	// Default: runtime.GOMAXPROCS(0).
	Workers int

	// CacheSize bounds the memoised result count (sharded LRU).
	// Default 1024; negative means unbounded.
	CacheSize int

	// TimingCacheSize bounds the cached timing-trace count. Traces are
	// megabytes each (a result is kilobytes), so this should stay small.
	// Default 16; negative means unbounded.
	TimingCacheSize int

	// DefaultInsts is the instruction count used when a request omits
	// one. Default 300_000 (the recorded-results configuration).
	DefaultInsts uint64

	// MaxInsts rejects requests asking for more than this many
	// instructions. Default 5_000_000.
	MaxInsts uint64

	// DefaultTimeout bounds each request's simulation work when the
	// request does not set its own (shorter) timeout_ms. Default 60s.
	DefaultTimeout time.Duration

	// Logger receives the service's structured logs. Default: a disabled
	// logger (the service is silent unless one is injected).
	Logger *slog.Logger

	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints expose internals and should only be
	// reachable on operator-facing listeners.
	EnablePprof bool

	// EnableTrace mounts /v1/trace, which runs an uncached, fully
	// instrumented simulation and streams its pipeline telemetry as
	// Chrome trace-event JSON or per-window CSV. Off by default: a trace
	// run always burns a worker slot for the full simulation.
	EnableTrace bool

	// Store, when set, is attached underneath the in-memory caches as the
	// persistent artifact tier: results and timing traces computed by any
	// process sharing the directory are served without re-simulation, so
	// a restarted server is warm. Its counters are registered on /metrics.
	Store *store.Store

	// SweepDir, when set, mounts the asynchronous /v1/sweeps API; sweep
	// jobs checkpoint to subdirectories of it, so jobs interrupted by a
	// server restart are resumable by resubmitting the same spec.
	SweepDir string

	// Cluster, when set (with SweepDir), turns the server into a sweep
	// coordinator: submitted sweeps execute through the worker fleet
	// instead of the in-process engine, the lease protocol is mounted
	// under /cluster/v1/, and — when Store is also set — the artifact
	// store is served under /store/v1/ so workers can remote-tier to it.
	// The hub's dcg_cluster_* instruments are registered on /metrics.
	// Run in-process cluster.Workers against it for a single-binary
	// fleet, or point dcgworker processes at the listener.
	Cluster *cluster.Hub

	// Tracer, when set, enables span tracing: the middleware roots one
	// span per /v1 request (continuing an inbound W3C traceparent),
	// simrun/store/sweep stages nest under it, GET /v1/traces serves the
	// ring of finished spans, and the tracer's span counters are
	// registered on /metrics. Off (nil) by default: tracing is opt-in and
	// costs nothing when absent.
	Tracer *obs.Tracer
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.CacheSize < 0 {
		c.CacheSize = 0 // unbounded, in simrun.NewCache terms
	}
	if c.TimingCacheSize == 0 {
		c.TimingCacheSize = 16
	}
	if c.TimingCacheSize < 0 {
		c.TimingCacheSize = 0
	}
	if c.DefaultInsts == 0 {
		c.DefaultInsts = 300_000
	}
	if c.MaxInsts == 0 {
		c.MaxInsts = 5_000_000
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	return c
}

// RunFunc executes one simulation. Production uses the two-level
// simrun.Exec; tests inject counting or blocking fakes via NewWithRunner.
type RunFunc func(ctx context.Context, k simrun.Key) (*core.Result, error)

// Server is the simulation service.
type Server struct {
	cfg  Config
	exec *simrun.Exec
	sem  chan struct{}
	mux  *http.ServeMux
	log  *slog.Logger

	draining   atomic.Bool
	m          *instruments
	startedAt  time.Time
	benchNames []string
	tracer     *obs.Tracer // nil unless cfg.Tracer is set

	sweeps *sweepJobs // nil unless cfg.SweepDir is set
}

// New builds a Server with the production two-level executor: full runs
// for timing-perturbing schemes, capture-once/replay-many for the
// timing-neutral ones.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return newServer(cfg, simrun.NewExec(cfg.CacheSize, cfg.TimingCacheSize))
}

// NewWithRunner builds a Server that executes every simulation through
// run, with no timing-trace level. This is the test seam: fakes observe
// exactly one run call per cache miss.
func NewWithRunner(cfg Config, run RunFunc) *Server {
	cfg = cfg.withDefaults()
	return newServer(cfg, simrun.NewSingleLevelExec(cfg.CacheSize, run))
}

func newServer(cfg Config, exec *simrun.Exec) *Server {
	s := &Server{
		cfg:        cfg,
		exec:       exec,
		sem:        make(chan struct{}, cfg.Workers),
		mux:        http.NewServeMux(),
		log:        cfg.Logger,
		startedAt:  time.Now(),
		benchNames: workload.Names(),
	}
	s.m = s.newInstruments()
	s.instrument()
	if cfg.Tracer != nil {
		s.tracer = cfg.Tracer
		s.tracer.SetLogger(cfg.Logger)
		s.tracer.Register(s.m.reg)
	}
	if cfg.Store != nil {
		// Attached after instrument() on purpose: store lookups happen
		// inside the cache closures before the Full/Capture seams, so a
		// store hit never waits on (or occupies) a worker slot.
		s.exec.Store = cfg.Store
		cfg.Store.Register(s.m.reg)
	}
	if cfg.SweepDir != "" {
		s.sweeps = newSweepJobs(&sweep.Engine{
			Exec:    s.exec,
			Workers: cfg.Workers,
			Log:     cfg.Logger,
			Metrics: sweep.NewMetrics(s.m.reg),
		}, cfg.SweepDir, cfg.Logger, s.tracer)
		if cfg.Cluster != nil {
			s.sweeps.hub = cfg.Cluster
			cfg.Cluster.Register(s.m.reg)
		}
	}
	s.routes()
	s.publishExpvar()
	return s
}

// acquireWorker blocks until a worker slot is free (or the context ends),
// recording queue depth and wait time. The returned release must be
// called when the simulation finishes.
func (s *Server) acquireWorker(ctx context.Context) (release func(), err error) {
	s.m.queueDepth.Add(1)
	start := time.Now()
	acquired := false
	select {
	case s.sem <- struct{}{}:
		acquired = true
	case <-ctx.Done():
	}
	s.m.queueDepth.Add(-1)
	s.m.queueWait.Observe(time.Since(start).Seconds())
	// select picks at random when a slot frees just as the context ends,
	// so re-check: a canceled caller hands a won slot straight back
	// instead of starting a simulation.
	if err := ctx.Err(); err != nil {
		if acquired {
			<-s.sem
		}
		return nil, fmt.Errorf("server: queued waiting for a worker: %w", err)
	}
	return func() { <-s.sem }, nil
}

// instrument wraps the executor's simulation hooks with the bounded
// worker pool, the activity counters, and per-mode duration histograms.
// Only the expensive cycle-accurate passes (full runs and timing
// captures) occupy a worker slot; trace replays are orders of magnitude
// cheaper and are already bounded by the in-flight request count.
func (s *Server) instrument() {
	if full := s.exec.Full; full != nil {
		s.exec.Full = func(ctx context.Context, k simrun.Key) (*core.Result, error) {
			release, err := s.acquireWorker(ctx)
			if err != nil {
				return nil, err
			}
			defer release()
			s.m.activeSims.Add(1)
			defer s.m.activeSims.Add(-1)
			s.m.simsRun.Inc()
			start := time.Now()
			res, err := full(ctx, k)
			s.m.simDur.With("full").Observe(time.Since(start).Seconds())
			return res, err
		}
	}
	if capture := s.exec.Capture; capture != nil {
		s.exec.Capture = func(ctx context.Context, k simrun.Key) (*core.Result, *core.Timing, error) {
			release, err := s.acquireWorker(ctx)
			if err != nil {
				return nil, nil, err
			}
			defer release()
			s.m.activeSims.Add(1)
			defer s.m.activeSims.Add(-1)
			s.m.simsRun.Inc()
			s.m.timingRuns.Inc()
			start := time.Now()
			res, tm, err := capture(ctx, k)
			s.m.simDur.With("capture").Observe(time.Since(start).Seconds())
			return res, tm, err
		}
	}
	if eval := s.exec.Evaluate; eval != nil {
		s.exec.Evaluate = func(k simrun.Key, t *core.Timing) (*core.Result, error) {
			start := time.Now()
			res, err := eval(k, t)
			s.m.simDur.With("replay").Observe(time.Since(start).Seconds())
			return res, err
		}
	}
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain marks the server as draining: /healthz starts reporting 503 so
// load balancers rotate the instance out, while in-flight and new
// requests continue to be served until the HTTP server shuts down.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// simulate answers one simulation key through the two-level executor: the
// result memo, the coalescing layer, the timing-trace cache, and (for the
// passes that actually simulate) the bounded worker pool. Cache hits,
// coalesced waiters, and trace replays never occupy a worker slot.
//
// Accounting: every call increments sim_requests and exactly one
// served{source} counter — a replayed request counts once under
// "replayed", not as both a miss and a replay, and likewise a
// persistent-store load counts once under "store" — so
// served{cache}+served{coalesced}+served{replayed}+served{store}+
// served{simulated} always equals sim_requests.
func (s *Server) simulate(ctx context.Context, k simrun.Key) (*core.Result, simrun.Outcome, error) {
	s.m.simRequests.Inc()
	res, outcome, err := s.exec.Do(ctx, k)
	s.m.served.With(outcome.String()).Inc()
	if err != nil {
		s.log.LogAttrs(ctx, slog.LevelWarn, "sim failed",
			slog.String("req", obs.RequestID(ctx)),
			slog.String("bench", k.Bench),
			slog.String("scheme", k.Scheme.String()),
			slog.String("err", err.Error()))
	}
	return res, outcome, err
}

// validate checks a key against the service limits before simulating.
func (s *Server) validate(k simrun.Key) error {
	if _, ok := workload.ByName(k.Bench); !ok {
		return fmt.Errorf("unknown benchmark %q", k.Bench)
	}
	if k.Insts > s.cfg.MaxInsts {
		return fmt.Errorf("insts %d exceeds the service limit %d", k.Insts, s.cfg.MaxInsts)
	}
	if k.IntALU < 0 || k.IntALU > config.MaxPoolUnits {
		return fmt.Errorf("int_alus %d out of range [0, %d]", k.IntALU, config.MaxPoolUnits)
	}
	return nil
}
