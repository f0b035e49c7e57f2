package server

import (
	"runtime"
	"sync"
	"time"

	"dcg/internal/core"
	"dcg/internal/obs"
	"dcg/internal/simrun"
	"dcg/internal/usagetrace"
)

// instruments is the server's typed metric set, registered in an
// obs.Registry and served on /metrics in Prometheus text format — the
// service's one counter surface.
type instruments struct {
	reg *obs.Registry

	// HTTP layer. A request's count is its duration histogram's _count.
	reqDur *obs.HistogramVec // dcgserve_request_duration_seconds{route}
	errors *obs.Counter      // dcgserve_request_errors_total

	// Simulation lookups through the two-level executor: exactly one
	// served-source counter increments per lookup.
	served *obs.CounterVec // dcgserve_sim_served_total{source}

	// Simulation execution.
	simsRun    *obs.Counter      // dcgserve_sims_run_total (captures, traces)
	activeSims *obs.Gauge        // dcgserve_sims_inflight
	simDur     *obs.HistogramVec // dcgserve_sim_duration_seconds{mode}

	// Worker pool.
	queueDepth *obs.Gauge     // dcgserve_worker_queue_depth
	queueWait  *obs.Histogram // dcgserve_worker_wait_seconds
}

// servedSources are the sim_served_total label values, pre-created so a
// fresh server scrapes zeros instead of missing series.
var servedSources = []string{"simulated", "cache", "coalesced", "replayed", "store"}

// instrumentedRoutes are the request-duration label values pre-created at
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
		reqDur: reg.HistogramVec("dcgserve_request_duration_seconds",
			"HTTP request latency in seconds, by route.", nil, "route"),
		errors: reg.Counter("dcgserve_request_errors_total",
			"HTTP error responses written."),
		served: reg.CounterVec("dcgserve_sim_served_total",
			"Simulation lookups (one per /v1/sim call and per /v1/batch item) served, by source: simulated (a timing capture ran), cache (result memo), coalesced (shared an in-flight run), replayed (cached timing trace), store (persistent artifact store).", "source"),
		simsRun: reg.Counter("dcgserve_sims_run_total",
			"Cycle-accurate simulations executed (timing captures and /v1/trace runs)."),
		activeSims: reg.Gauge("dcgserve_sims_inflight",
			"Simulations executing right now."),
		simDur: reg.HistogramVec("dcgserve_sim_duration_seconds",
			"Simulation execution time in seconds, by mode: capture, replay, trace.", nil, "mode"),
		queueDepth: reg.Gauge("dcgserve_worker_queue_depth",
			"Simulations waiting for a worker slot."),
		queueWait: reg.Histogram("dcgserve_worker_wait_seconds",
			"Time simulations spent queued for a worker slot.", nil),
	}
	for _, src := range servedSources {
		m.served.With(src)
	}
	for _, r := range instrumentedRoutes {
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
	// stored trace's load is that pass) and how often packed evaluations
	// reused an existing view. decodes ≪ packed schemes is the signature
	// of the decode-once/evaluate-many path working.
	reg.CounterFunc("dcg_trace_decodes_total",
		"Passes over encoded usage traces that built their packed view.",
		func() float64 { return float64(usagetrace.Decodes()) })
	reg.CounterFunc("dcg_trace_decode_reuses_total",
		"Packed evaluations that reused a trace's packed view instead of decoding again.",
		func() float64 { return float64(usagetrace.DecodeReuses()) })

	// Warm-state cache (process-wide, maintained by the core layer): a
	// built-in benchmark's run either restored its functional warm-up
	// from a snapshot (hit) or ran it and stored one (miss). Misses stay
	// at one per benchmark and machine geometry once the cache is warm.
	reg.CounterFunc("dcg_warm_state_hits_total",
		"Benchmark runs that restored their functional warm-up from the warm-state cache.",
		func() float64 { hits, _ := core.WarmStateStats(); return float64(hits) })
	reg.CounterFunc("dcg_warm_state_misses_total",
		"Benchmark runs that found no warm-state snapshot and ran their functional warm-up.",
		func() float64 { _, misses := core.WarmStateStats(); return float64(misses) })

	// Replay evaluations (process-wide, maintained by the core layer):
	// every timing-neutral replay runs on the bit-packed columnar kernel.
	reg.CounterFunc("dcg_replay_packed_schemes_total",
		"Scheme lanes evaluated by the bit-packed columnar replay kernel.",
		func() float64 { return float64(core.PackedReplaySchemes()) })

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
