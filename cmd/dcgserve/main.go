// Command dcgserve runs the clock-gating simulator as an HTTP/JSON
// service: bounded parallelism, request coalescing, and a result cache
// over the same simulation core as dcgsim (see docs/SERVICE.md).
//
// Usage:
//
//	dcgserve [-addr :8080] [-workers N] [-cache 1024] [-timing-cache 16]
//	         [-default-insts 300000] [-max-insts 5000000] [-timeout 60s]
//	         [-log-level info] [-log-format text] [-pprof] [-enable-trace]
//	         [-store-dir DIR] [-store-max-bytes N] [-sweep-dir DIR]
//	         [-trace-spans 4096] [-trace-slow-ms 0] [-version]
//	         [-cluster] [-cluster-workers N] [-lease-ttl 10s] [-sweep-retries N]
//
// With -cluster (requires -sweep-dir), the server becomes a sweep
// coordinator: submitted sweeps execute through a fleet of lease-pulling
// workers instead of the in-process engine. -cluster-workers embedded
// worker loops run inside this process (0 makes a pure coordinator for
// external dcgworker processes), the lease protocol is served under
// /cluster/v1/, and — with -store-dir — the artifact store under
// /store/v1/ for workers to remote-tier against. See docs/SWEEPS.md.
//
// Try it:
//
//	curl localhost:8080/v1/sim?benchmark=gzip&scheme=dcg
//	curl localhost:8080/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"dcg/internal/cluster"
	"dcg/internal/obs"
	"dcg/internal/server"
	"dcg/internal/simrun"
	"dcg/internal/store"
)

// newLogger builds the process logger from the -log-level/-log-format
// flags. Logs go to stderr; stdout stays clean for tooling.
func newLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		cacheSize    = flag.Int("cache", 1024, "max memoised results (negative = unbounded)")
		timingCache  = flag.Int("timing-cache", 16, "max cached timing traces, megabytes each (negative = unbounded)")
		defaultInsts = flag.Uint64("default-insts", 300_000, "instructions when a request omits insts")
		maxInsts     = flag.Uint64("max-insts", 5_000_000, "reject requests above this instruction count")
		timeout      = flag.Duration("timeout", 60*time.Second, "per-request simulation deadline")
		drainWait    = flag.Duration("drain-wait", 30*time.Second, "shutdown grace period for in-flight requests")
		logLevel     = flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
		logFormat    = flag.String("log-format", "text", "log encoding: text or json")
		pprofOn      = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		traceOn      = flag.Bool("enable-trace", false, "mount /v1/trace (uncached, fully instrumented simulations)")
		storeDir     = flag.String("store-dir", "", "persistent artifact store directory (restart-warm cache; empty = memory only)")
		storeMax     = flag.Int64("store-max-bytes", 0, "evict least-recently-used store artifacts above this size (0 = unbounded)")
		sweepDir     = flag.String("sweep-dir", "", "sweep job directory; mounts the /v1/sweeps API (empty = disabled)")
		traceSpans   = flag.Int("trace-spans", obs.DefaultSpanCapacity, "finished request/stage spans retained for /v1/traces (0 = tracing off)")
		traceSlowMS  = flag.Int("trace-slow-ms", 0, "log spans slower than this many milliseconds at warn (0 = off)")
		clusterOn    = flag.Bool("cluster", false, "coordinate sweeps across a worker fleet (requires -sweep-dir); mounts /cluster/v1/")
		clusterWkrs  = flag.Int("cluster-workers", -1, "embedded cluster worker loops (-1 = GOMAXPROCS, 0 = pure coordinator)")
		leaseTTL     = flag.Duration("lease-ttl", 10*time.Second, "cluster work-lease TTL; a silent worker's items requeue after this")
		sweepRetries = flag.Int("sweep-retries", 0, "re-attempts for failed cluster sweep items")
		version      = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()

	if *version {
		v, rev := obs.BuildInfo()
		fmt.Printf("dcgserve %s (%s)\n", v, rev)
		return
	}

	logger, err := newLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcgserve:", err)
		os.Exit(2)
	}

	var artifacts *store.Store
	if *storeDir != "" {
		artifacts, err = store.Open(*storeDir, *storeMax, logger)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcgserve:", err)
			os.Exit(2)
		}
		logger.Info("artifact store open", "dir", *storeDir, "max_bytes", *storeMax)
	}

	var tracer *obs.Tracer
	if *traceSpans > 0 {
		tracer = obs.NewTracer(*traceSpans)
		tracer.SetSlowThreshold(time.Duration(*traceSlowMS) * time.Millisecond)
	}

	var hub *cluster.Hub
	if *clusterOn {
		if *sweepDir == "" {
			fmt.Fprintln(os.Stderr, "dcgserve: -cluster requires -sweep-dir")
			os.Exit(2)
		}
		hub = cluster.NewHub(cluster.HubConfig{
			LeaseTTL: *leaseTTL,
			Retries:  *sweepRetries,
			Log:      logger,
			Tracer:   tracer,
		})
	}

	srv := server.New(server.Config{
		Workers:         *workers,
		CacheSize:       *cacheSize,
		TimingCacheSize: *timingCache,
		DefaultInsts:    *defaultInsts,
		MaxInsts:        *maxInsts,
		DefaultTimeout:  *timeout,
		Logger:          logger,
		EnablePprof:     *pprofOn,
		EnableTrace:     *traceOn,
		Store:           artifacts,
		SweepDir:        *sweepDir,
		Tracer:          tracer,
		Cluster:         hub,
	})

	// Embedded fleet: worker loops inside the coordinator process, polling
	// the hub directly and sharing the artifact store on disk. They stop
	// on shutdown; any in-flight leases expire and requeue for external
	// workers (or a restart).
	workerCtx, stopWorkers := context.WithCancel(context.Background())
	defer stopWorkers()
	if hub != nil {
		n := *clusterWkrs
		if n < 0 {
			n = runtime.GOMAXPROCS(0)
		}
		if n > 0 {
			host, _ := os.Hostname()
			if host == "" {
				host = "local"
			}
			exec := simrun.NewExec(*cacheSize, *timingCache)
			exec.Store = artifacts
			for i := 0; i < n; i++ {
				w := &cluster.Worker{
					Name:   host,
					Client: cluster.DirectClient{Hub: hub},
					Exec:   exec,
					Log:    logger,
					Tracer: tracer,
				}
				go w.Run(workerCtx)
			}
			logger.Info("embedded cluster workers running", "name", host, "loops", n)
		} else {
			logger.Info("pure coordinator: no embedded workers; point dcgworker at this listener")
		}
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		v, rev := obs.BuildInfo()
		logger.Info("dcgserve listening", "addr", *addr, "version", v,
			"revision", rev, "pprof", *pprofOn, "trace", *traceOn,
			"sweeps", *sweepDir != "", "spans", *traceSpans)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errc:
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	case sig := <-sigc:
		logger.Info("draining", "signal", sig.String(), "grace", drainWait.String())
	}

	// Graceful shutdown: flip /healthz to 503 so load balancers rotate
	// us out, then let in-flight simulations finish within the grace
	// period. A second signal aborts immediately.
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	go func() {
		<-sigc
		logger.Warn("second signal; aborting")
		cancel()
	}()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "shutdown: %v\n", err)
		os.Exit(1)
	}
	logger.Info("drained; bye")
}
