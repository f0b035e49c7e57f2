package server

import (
	"expvar"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dcg/internal/core"
	"dcg/internal/obs"
	"dcg/internal/simrun"
	"dcg/internal/usagetrace"
)

// instruments is the server's typed metric set, registered in an
// obs.Registry and served on /metrics in Prometheus text format. The
// legacy JSON snapshot (/stats, /metricz, expvar "dcgserve") is derived
// from the same instruments, so the two views can never disagree.
type instruments struct {
	reg *obs.Registry

	// HTTP layer.
	requests *obs.CounterVec   // dcgserve_requests_total{route}
	reqDur   *obs.HistogramVec // dcgserve_request_duration_seconds{route}
	errors   *obs.Counter      // dcgserve_request_errors_total

	// Simulation requests through the two-level executor. Exactly one
	// served-source counter increments per sim request, so
	// cache + coalesced + replayed + simulated == sim_requests.
	simRequests *obs.Counter    // dcgserve_sim_requests_total
	served      *obs.CounterVec // dcgserve_sim_served_total{source}

	// Simulation execution.
	simsRun    *obs.Counter      // dcgserve_sims_run_total (full runs + captures)
	timingRuns *obs.Counter      // dcgserve_timing_captures_total
	activeSims *obs.Gauge        // dcgserve_sims_inflight
	simDur     *obs.HistogramVec // dcgserve_sim_duration_seconds{mode}

	// Worker pool.
	queueDepth *obs.Gauge     // dcgserve_worker_queue_depth
	queueWait  *obs.Histogram // dcgserve_worker_wait_seconds
}

// servedSources are the sim_served_total label values, pre-created so a
// fresh server scrapes zeros instead of missing series.
var servedSources = []string{"simulated", "cache", "coalesced", "replayed", "store"}

// instrumentedRoutes are the request-counter label values pre-created at
// startup (the middleware accepts any route, these just guarantee the
// series exist from the first scrape).
var instrumentedRoutes = []string{"/v1/sim", "/v1/batch", "/v1/trace", "/v1/benchmarks", "/v1/schemes"}

// newInstruments builds the metric set. The cache-level counters are
// registered as scrape-time callbacks over the executor's own counters,
// so the Prometheus view exposes the cache's cumulative hit/miss/
// eviction series without a second set of books.
func (s *Server) newInstruments() *instruments {
	reg := obs.NewRegistry()
	m := &instruments{
		reg: reg,
		requests: reg.CounterVec("dcgserve_requests_total",
			"HTTP requests served, by route.", "route"),
		reqDur: reg.HistogramVec("dcgserve_request_duration_seconds",
			"HTTP request latency in seconds, by route.", nil, "route"),
		errors: reg.Counter("dcgserve_request_errors_total",
			"HTTP error responses written."),
		simRequests: reg.Counter("dcgserve_sim_requests_total",
			"Simulation requests submitted to the executor (one per /v1/sim call and per /v1/batch item)."),
		served: reg.CounterVec("dcgserve_sim_served_total",
			"Simulation requests served, by source: simulated (full run), cache (result memo), coalesced (shared an in-flight run), replayed (cached timing trace), store (persistent artifact store).", "source"),
		simsRun: reg.Counter("dcgserve_sims_run_total",
			"Cycle-accurate simulations executed (full runs and timing captures)."),
		timingRuns: reg.Counter("dcgserve_timing_captures_total",
			"Timing simulations that also captured a usage trace."),
		activeSims: reg.Gauge("dcgserve_sims_inflight",
			"Simulations executing right now."),
		simDur: reg.HistogramVec("dcgserve_sim_duration_seconds",
			"Simulation execution time in seconds, by mode: full, capture, replay.", nil, "mode"),
		queueDepth: reg.Gauge("dcgserve_worker_queue_depth",
			"Simulations waiting for a worker slot."),
		queueWait: reg.Histogram("dcgserve_worker_wait_seconds",
			"Time simulations spent queued for a worker slot.", nil),
	}
	for _, src := range servedSources {
		m.served.With(src)
	}
	for _, r := range instrumentedRoutes {
		m.requests.With(r)
		m.reqDur.With(r)
	}

	reg.GaugeFunc("dcgserve_workers",
		"Size of the simulation worker pool.",
		func() float64 { return float64(s.cfg.Workers) })
	reg.GaugeFunc("dcgserve_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.startedAt).Seconds() })
	reg.GaugeFunc("dcgserve_draining",
		"1 while the server is draining (post-Drain), else 0.",
		func() float64 {
			if s.Draining() {
				return 1
			}
			return 0
		})

	cacheFuncs := func(prefix, help string, stats func() simrun.Stats) {
		reg.CounterFunc(prefix+"_hits_total", "Hits in the "+help+".",
			func() float64 { return float64(stats().Hits) })
		reg.CounterFunc(prefix+"_misses_total", "Misses in the "+help+".",
			func() float64 { return float64(stats().Misses) })
		reg.CounterFunc(prefix+"_coalesced_total", "Requests that joined an in-flight run in the "+help+".",
			func() float64 { return float64(stats().Coalesced) })
		reg.CounterFunc(prefix+"_evictions_total", "LRU evictions from the "+help+".",
			func() float64 { return float64(stats().Evictions) })
		reg.GaugeFunc(prefix+"_resident", "Entries resident in the "+help+".",
			func() float64 { return float64(stats().Resident) })
	}
	cacheFuncs("dcgserve_result_cache", "memoised-result cache",
		func() simrun.Stats { return s.exec.ResultStats() })
	cacheFuncs("dcgserve_timing_cache", "timing-trace cache",
		func() simrun.Stats { return s.exec.TimingStats() })

	// Replay counters (process-wide, maintained by the trace layer): how
	// often a pass over an encoded usage trace built its packed view (a
	// stored trace's load is that pass), how often packed evaluations
	// reused an existing view, and how many scheme lanes rode streaming
	// scalar replay passes. decodes ≪ packed schemes is the signature of
	// the decode-once/evaluate-many path working.
	reg.CounterFunc("dcg_trace_decodes_total",
		"Passes over encoded usage traces that built their packed view.",
		func() float64 { return float64(usagetrace.Decodes()) })
	reg.CounterFunc("dcg_trace_decode_reuses_total",
		"Packed evaluations that reused a trace's packed view instead of decoding again.",
		func() float64 { return float64(usagetrace.DecodeReuses()) })
	reg.CounterFunc("dcg_replay_fused_schemes_total",
		"Scheme lanes fed by streaming scalar replay passes.",
		func() float64 { return float64(usagetrace.FusedSchemes()) })

	// Packed-replay counters (process-wide, maintained by the core layer):
	// how many scheme lanes the bit-packed columnar kernel served versus
	// how many fell back to the scalar fused engine. packed ≫ fallbacks is
	// the expected steady state; a rising fallback rate means evaluations
	// are arriving with telemetry sinks or machine-mismatched schemes.
	reg.CounterFunc("dcg_replay_packed_schemes_total",
		"Scheme lanes evaluated by the bit-packed columnar replay kernel.",
		func() float64 { return float64(core.PackedReplaySchemes()) })
	reg.CounterFunc("dcg_replay_packed_fallbacks_total",
		"Scheme lanes that fell back from the packed kernel to scalar replay.",
		func() float64 { return float64(core.PackedReplayFallbacks()) })

	reg.GaugeFunc("go_goroutines", "Number of goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })

	// Runtime memory/GC gauges. ReadMemStats stops the world, so one
	// throttled sampler feeds all four series instead of each gauge (or
	// each scrape) paying that pause separately.
	ms := &memStatsSampler{}
	reg.GaugeFunc("go_memstats_heap_alloc_bytes",
		"Bytes of allocated heap objects.",
		func() float64 { return float64(ms.get().HeapAlloc) })
	reg.CounterFunc("go_gc_pause_seconds_total",
		"Cumulative stop-the-world GC pause time.",
		func() float64 { return float64(ms.get().PauseTotalNs) / 1e9 })
	reg.CounterFunc("go_gc_cycles_total",
		"Completed garbage-collection cycles.",
		func() float64 { return float64(ms.get().NumGC) })
	reg.GaugeFunc("go_sched_gomaxprocs_threads",
		"Current GOMAXPROCS setting.",
		func() float64 { return float64(runtime.GOMAXPROCS(0)) })

	version, revision := obs.BuildInfo()
	buildInfo := reg.GaugeVec("dcg_build_info",
		"Build identity of the running binary; the value is always 1.",
		"version", "revision")
	buildInfo.With(version, revision).Set(1)
	return m
}

// memStatsSampler caches one runtime.MemStats snapshot for up to a
// second. Scrapes within the window (and the several gauges reading from
// one scrape) share a single ReadMemStats stop-the-world.
type memStatsSampler struct {
	mu   sync.Mutex
	last time.Time
	ms   runtime.MemStats
}

func (s *memStatsSampler) get() runtime.MemStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.last.IsZero() || time.Since(s.last) >= time.Second {
		runtime.ReadMemStats(&s.ms)
		s.last = time.Now()
	}
	return s.ms
}

// Snapshot is a point-in-time copy of the service counters, served on
// /stats and /metricz and published under the expvar key "dcgserve".
// The counters are the same instruments /metrics exports; CacheMisses
// is derived as simulated + replayed + store (every request that missed
// the in-memory result memo), so hits + misses + coalesced ==
// sim_requests always holds — a replay or store load is never
// double-counted.
type Snapshot struct {
	UptimeSec   float64 `json:"uptime_sec"`
	Draining    bool    `json:"draining"`
	Workers     int     `json:"workers"`
	Requests    int64   `json:"requests"`
	Batches     int64   `json:"batches"`
	Errors      int64   `json:"errors"`
	SimsRun     int64   `json:"sims_run"`
	ActiveSims  int64   `json:"active_sims"`
	SimRequests int64   `json:"sim_requests"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	Coalesced   int64   `json:"coalesced"`
	StoreHits   int64   `json:"store_hits"`
	CacheSize   int     `json:"cache_size"`
	Evictions   uint64  `json:"cache_evictions"`

	// Capture-once / replay-many counters: TimingRuns counts core timing
	// simulations that also captured a trace, Replays counts requests
	// answered by replaying one, TimingCached is the resident trace count.
	TimingRuns   int64 `json:"timing_runs"`
	Replays      int64 `json:"replays"`
	TimingCached int   `json:"timing_cache_size"`
}

// Snapshot collects the current counter values.
func (s *Server) Snapshot() Snapshot {
	cs := s.exec.ResultStats()
	ts := s.exec.TimingStats()
	m := s.m
	simulated := int64(m.served.With("simulated").Value())
	replayed := int64(m.served.With("replayed").Value())
	storeHits := int64(m.served.With("store").Value())
	return Snapshot{
		UptimeSec:    time.Since(s.startedAt).Seconds(),
		Draining:     s.Draining(),
		Workers:      s.cfg.Workers,
		Requests:     int64(m.requests.With("/v1/sim").Value() + m.requests.With("/v1/batch").Value() + m.requests.With("/v1/trace").Value()),
		Batches:      int64(m.requests.With("/v1/batch").Value()),
		Errors:       int64(m.errors.Value()),
		SimsRun:      int64(m.simsRun.Value()),
		ActiveSims:   m.activeSims.Value(),
		SimRequests:  int64(m.simRequests.Value()),
		CacheHits:    int64(m.served.With("cache").Value()),
		CacheMisses:  simulated + replayed + storeHits,
		Coalesced:    int64(m.served.With("coalesced").Value()),
		StoreHits:    storeHits,
		CacheSize:    cs.Resident,
		Evictions:    cs.Evictions,
		TimingRuns:   int64(m.timingRuns.Value()),
		Replays:      replayed,
		TimingCached: ts.Resident,
	}
}

// expvar.Publish panics on duplicate registration, and tests construct
// many Servers per process, so the "dcgserve" var is registered once and
// always reads through a pointer to the most recently built server.
var (
	expvarOnce   sync.Once
	expvarServer atomic.Pointer[Server]
)

func (s *Server) publishExpvar() {
	expvarServer.Store(s)
	expvarOnce.Do(func() {
		expvar.Publish("dcgserve", expvar.Func(func() any {
			if srv := expvarServer.Load(); srv != nil {
				return srv.Snapshot()
			}
			return nil
		}))
	})
}
