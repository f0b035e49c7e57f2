// Command dcgworker is one node of a distributed sweep fleet: it joins
// a dcgserve coordinator (-cluster), pulls work leases over HTTP, runs
// the simulations through the same two-level executor a single-node
// sweep uses, and reports results back. Its artifact store is a local
// disk cache remote-tiered to the coordinator's /store/v1/, so timing
// captures written by one worker are readable by every other.
//
// Usage:
//
//	dcgworker -join http://coordinator:8080 [-name HOST] [-parallel N]
//	          [-store-dir DIR] [-store-max-bytes N] [-cache 1024]
//	          [-timing-cache 16] [-poll 250ms] [-log-level info]
//	          [-log-format text] [-version]
//
// Killing a worker (any signal, any time) is safe: its unreported
// leases expire at the coordinator and requeue on the surviving fleet,
// consuming no retry attempts. See docs/SWEEPS.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"dcg/internal/cluster"
	"dcg/internal/obs"
	"dcg/internal/simrun"
	"dcg/internal/store"
)

// newLogger builds the process logger from -log-level/-log-format.
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
		join        = flag.String("join", "", "coordinator base URL, e.g. http://host:8080 (required)")
		name        = flag.String("name", "", "worker name for leases and affinity (default: hostname)")
		parallel    = flag.Int("parallel", 0, "concurrent lease loops (0 = GOMAXPROCS)")
		storeDir    = flag.String("store-dir", "", "local artifact cache directory (empty = a temp dir)")
		storeMax    = flag.Int64("store-max-bytes", 0, "evict least-recently-used local artifacts above this size (0 = unbounded)")
		cacheSize   = flag.Int("cache", 1024, "max memoised results (negative = unbounded)")
		timingCache = flag.Int("timing-cache", 16, "max cached timing traces, megabytes each (negative = unbounded)")
		poll        = flag.Duration("poll", 250*time.Millisecond, "idle re-poll interval when the coordinator has no work")
		logLevel    = flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
		logFormat   = flag.String("log-format", "text", "log encoding: text or json")
		version     = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()

	if *version {
		v, rev := obs.BuildInfo()
		fmt.Printf("dcgworker %s (%s)\n", v, rev)
		return
	}
	logger, err := newLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcgworker:", err)
		os.Exit(2)
	}
	if *join == "" {
		fmt.Fprintln(os.Stderr, "dcgworker: -join is required (the coordinator's base URL)")
		os.Exit(2)
	}
	base := strings.TrimRight(*join, "/")

	if *name == "" {
		*name, _ = os.Hostname()
		if *name == "" {
			*name = fmt.Sprintf("worker-%d", os.Getpid())
		}
	}
	if len(*name) > cluster.MaxWorkerName {
		fmt.Fprintf(os.Stderr, "dcgworker: -name is %d bytes; the coordinator takes at most %d\n", len(*name), cluster.MaxWorkerName)
		os.Exit(2)
	}
	if *parallel <= 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}
	if *storeDir == "" {
		dir, err := os.MkdirTemp("", "dcgworker-store-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcgworker:", err)
			os.Exit(2)
		}
		defer os.RemoveAll(dir)
		*storeDir = dir
	}

	// Cache sizes use the dcgserve convention: negative = unbounded.
	if *cacheSize < 0 {
		*cacheSize = 0
	}
	if *timingCache < 0 {
		*timingCache = 0
	}

	local, err := store.Open(*storeDir, *storeMax, logger)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcgworker:", err)
		os.Exit(2)
	}
	remote := store.NewRemote(base+"/store/v1", local, logger)
	exec := simrun.NewExec(*cacheSize, *timingCache)
	exec.Store = remote

	// A small tracer so lease traceparents from the coordinator have
	// spans to parent; the ring is process-local (workers serve no HTTP).
	tracer := obs.NewTracer(1024)
	tracer.SetLogger(logger)

	ctx, cancel := context.WithCancel(context.Background())
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		// Abandon in-flight work: unreported leases expire and requeue at
		// the coordinator without consuming attempts, so a hard stop is
		// always safe.
		logger.Info("stopping; in-flight leases will requeue at the coordinator", "signal", sig.String())
		cancel()
	}()

	v, rev := obs.BuildInfo()
	logger.Info("dcgworker joining", "coordinator", base, "name", *name,
		"parallel", *parallel, "store", *storeDir, "version", v, "revision", rev)

	var wg sync.WaitGroup
	workers := make([]*cluster.Worker, *parallel)
	for i := range workers {
		w := &cluster.Worker{
			Name:   *name,
			Client: cluster.NewHTTPClient(base + "/cluster/v1"),
			Exec:   exec,
			Poll:   *poll,
			Log:    logger,
			Tracer: tracer,
		}
		workers[i] = w
		wg.Add(1)
		go func() { defer wg.Done(); w.Run(ctx) }()
	}
	wg.Wait()

	var executed uint64
	for _, w := range workers {
		executed += w.Executed()
	}
	st := remote.Stats()
	logger.Info("dcgworker stopped", "executed", executed,
		"store_hits", st.Hits, "store_misses", st.Misses,
		"store_writes", st.Writes, "store_errors", st.Errors)
}
