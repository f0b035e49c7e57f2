// Command dcgsweep runs parameter-sweep jobs: a declarative spec
// (benchmarks × gating schemes × machine configurations) is expanded into
// a work DAG and executed on a bounded worker pool, checkpointing every
// completed item to an fsynced manifest. A killed or interrupted sweep
// resumes where it left off, and the final results stream is
// byte-identical to an uninterrupted run's (see docs/SWEEPS.md).
//
// Usage:
//
//	dcgsweep run -spec spec.json -dir jobs/myjob [-workers N] [-retries N]
//	dcgsweep resume -dir jobs/myjob
//	dcgsweep status -dir jobs/myjob
//
// Attach a persistent artifact store (shared with dcgserve) to make
// repeated sweeps warm across processes:
//
//	dcgsweep run -spec spec.json -dir jobs/myjob -store-dir /var/cache/dcg
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dcg/internal/obs"
	"dcg/internal/simrun"
	"dcg/internal/store"
	"dcg/internal/sweep"
)

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  dcgsweep run    -spec FILE -dir DIR [options]   start a new sweep job
  dcgsweep resume -dir DIR [options]              continue an interrupted job
  dcgsweep status -dir DIR                        print a job's progress
  dcgsweep version                                print build version

options:`)
	newRunFlags("run").fs.PrintDefaults()
}

// runFlags are the options shared by run and resume.
type runFlags struct {
	fs          *flag.FlagSet
	spec        *string
	dir         *string
	workers     *int
	retries     *int
	storeDir    *string
	storeMax    *int64
	logLevel    *string
	logFormat   *string
	traceSpans  *int
	traceSlowMS *int
	traceOut    *string
	cpuprofile  *string
	memprofile  *string

	tracer *obs.Tracer // built by engine() when span tracing is enabled
}

func newRunFlags(name string) *runFlags {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	f := &runFlags{
		fs:          fs,
		dir:         fs.String("dir", "", "job directory (spec, manifest and results live here)"),
		workers:     fs.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)"),
		retries:     fs.Int("retries", 1, "re-attempts per failed item"),
		storeDir:    fs.String("store-dir", "", "persistent artifact store directory (shared with dcgserve)"),
		storeMax:    fs.Int64("store-max-bytes", 0, "evict least-recently-used store artifacts above this size (0 = unbounded)"),
		logLevel:    fs.String("log-level", "warn", "log verbosity: debug, info (per-item progress), warn, error"),
		logFormat:   fs.String("log-format", "text", "log encoding: text or json"),
		traceSpans:  fs.Int("trace-spans", 0, "retain up to this many finished spans for -trace-out (0 = tracing off)"),
		traceSlowMS: fs.Int("trace-slow-ms", 0, "log spans slower than this many milliseconds at warn (0 = off)"),
		traceOut:    fs.String("trace-out", "", "write the job's spans as JSONL to this file on exit (implies tracing)"),
		cpuprofile:  fs.String("cpuprofile", "", "write a CPU profile to this file"),
		memprofile:  fs.String("memprofile", "", "write a heap (allocation) profile to this file on exit"),
	}
	if name == "run" {
		f.spec = fs.String("spec", "", "sweep spec JSON file (required)")
	}
	return f
}

// logger builds the process logger at -log-level.
func (f *runFlags) logger() (*slog.Logger, error) {
	var level slog.Level
	if err := level.UnmarshalText([]byte(*f.logLevel)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", *f.logLevel)
	}
	opts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(*f.logFormat) {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", *f.logFormat)
	}
}

// exportSpans writes the tracer's retained spans to -trace-out as JSONL.
// No-op unless both tracing and the output path are configured.
func (f *runFlags) exportSpans() {
	if f.tracer == nil || *f.traceOut == "" {
		return
	}
	out, err := os.Create(*f.traceOut)
	if err == nil {
		err = obs.WriteSpansJSONL(out, f.tracer.Spans(obs.SpanFilter{}))
		if cerr := out.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcgsweep: writing -trace-out:", err)
	}
}

// profiles starts the flagged CPU/heap profiles; the returned stop runs
// on the sub-command's way out (before main's os.Exit).
func (f *runFlags) profiles() (func() error, error) {
	return obs.StartProfiles(*f.cpuprofile, *f.memprofile)
}

// engine assembles the sweep engine from the flags.
func (f *runFlags) engine() (*sweep.Engine, error) {
	log, err := f.logger()
	if err != nil {
		return nil, err
	}
	exec := simrun.NewExec(0, 0)
	if *f.storeDir != "" {
		st, err := store.Open(*f.storeDir, *f.storeMax, log)
		if err != nil {
			return nil, err
		}
		exec.Store = st
	}
	if spans := *f.traceSpans; spans > 0 || *f.traceOut != "" {
		if spans <= 0 {
			spans = obs.DefaultSpanCapacity
		}
		f.tracer = obs.NewTracer(spans)
		f.tracer.SetLogger(log)
		f.tracer.SetSlowThreshold(time.Duration(*f.traceSlowMS) * time.Millisecond)
	}
	return &sweep.Engine{
		Exec:    exec,
		Workers: *f.workers,
		Retries: *f.retries,
		Log:     log,
		Tracer:  f.tracer,
	}, nil
}

// signalContext cancels on the first SIGINT/SIGTERM so an interrupted
// sweep stops at an item boundary with its manifest intact; a second
// signal kills the process the hard way.
func signalContext() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "dcgsweep: interrupted; checkpointing (resume with `dcgsweep resume`)")
		cancel()
		<-sigc
		os.Exit(130)
	}()
	return ctx
}

// report prints the summary and maps it to the exit code.
func report(sum *sweep.Summary, err error) int {
	if sum != nil {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(sum)
	}
	switch {
	case errors.Is(err, context.Canceled):
		return 130
	case err != nil:
		fmt.Fprintln(os.Stderr, "dcgsweep:", err)
		return 1
	case sum != nil && !sum.Done:
		return 1
	}
	return 0
}

func cmdRun(args []string) int {
	f := newRunFlags("run")
	f.fs.Parse(args)
	if *f.spec == "" || *f.dir == "" {
		fmt.Fprintln(os.Stderr, "dcgsweep run: -spec and -dir are required")
		return 2
	}
	spec, err := sweep.Load(*f.spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcgsweep:", err)
		return 2
	}
	stopProf, err := f.profiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcgsweep:", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "dcgsweep:", err)
		}
	}()
	eng, err := f.engine()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcgsweep:", err)
		return 2
	}
	sum, err := eng.Start(signalContext(), spec, *f.dir)
	f.exportSpans()
	if errors.Is(err, sweep.ErrExists) {
		fmt.Fprintf(os.Stderr, "dcgsweep: %s already has a manifest; use `dcgsweep resume -dir %s`\n", *f.dir, *f.dir)
		return 2
	}
	return report(sum, err)
}

func cmdResume(args []string) int {
	f := newRunFlags("resume")
	f.fs.Parse(args)
	if *f.dir == "" {
		fmt.Fprintln(os.Stderr, "dcgsweep resume: -dir is required")
		return 2
	}
	stopProf, err := f.profiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcgsweep:", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "dcgsweep:", err)
		}
	}()
	eng, err := f.engine()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcgsweep:", err)
		return 2
	}
	sum, err := eng.Resume(signalContext(), *f.dir)
	f.exportSpans()
	return report(sum, err)
}

func cmdStatus(args []string) int {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	dir := fs.String("dir", "", "job directory")
	fs.Parse(args)
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "dcgsweep status: -dir is required")
		return 2
	}
	st, err := sweep.ReadStatus(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcgsweep:", err)
		return 1
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(st)
	return 0
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "run":
		os.Exit(cmdRun(os.Args[2:]))
	case "resume":
		os.Exit(cmdResume(os.Args[2:]))
	case "status":
		os.Exit(cmdStatus(os.Args[2:]))
	case "version", "-version", "--version":
		v, rev := obs.BuildInfo()
		fmt.Printf("dcgsweep %s (%s)\n", v, rev)
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "dcgsweep: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}
