// Command bench is the repository benchmark: it drives the real dcgserve
// handler and the real sweep engine with seed-generated traffic and
// prints every end-to-end metric by name with its unit. A traced run adds
// the per-layer ledger. See README.md for the metrics, the workloads and
// how to compare two commits.
//
//	go run . -seed 1                      # all workloads, untraced
//	go run . -workload cold-sim -trace 1  # one workload, per-layer metrics
//
// Run from the repository root, bash bench/run.sh takes the same flags.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runSeconds is the default run length (BENCHMARK.json's run_seconds).
const runSeconds = 30

// scratchDir holds the runs' stores and sweep job directories, relative to
// the directory the benchmark runs from (the repository root, where
// run.sh also builds). Each run removes what it made there.
const scratchDir = ".bench_build"

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (default: all, each in its own process)")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same op list")
		seconds = flag.Float64("seconds", runSeconds, "run length in seconds, which fixes each workload's op count")
		traced  = flag.Int("trace", 0, "1 adds a traced run and reports the per-layer metrics instead")
		spans   = flag.String("spans", "", "with -trace 1, write the traced run's spans to this JSONL file")
		out     = flag.String("out", "", "write the full report as JSON to this file")
		child   = flag.Bool("child", false, "run -workload in this process (used by the parent)")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	var ws []workloadSpec
	if *name == "" {
		ws = workloads
	} else if w, ok := workloadByName(*name); ok {
		ws = []workloadSpec{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *child {
		os.Exit(runChild(runConfig{
			w: ws[0], seed: *seed, sz: sizing{seconds: *seconds}, trace: *traced == 1,
			spans: *spans, tmpRoot: scratchDir, started: epoch,
		}))
	}
	os.Exit(runParent(ws, *seed, *seconds, *traced == 1, *spans, *out))
}

// runChild runs one workload and prints its result as one JSON line. Its
// deadline allows set-up plus six run lengths: the window, and for a traced
// run the traced replay and its calibrations, then the reference check.
func runChild(cfg runConfig) int {
	deadline := 2*time.Minute + time.Duration(6*cfg.sz.seconds*float64(time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	res, err := runWorkload(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", cfg.w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runParent runs each workload in its own child process (re-executing
// this binary), so peak RSS, caches, pools and GC state are per workload,
// then prints the report and, last, the result line.
func runParent(ws []workloadSpec, seed int64, seconds float64, traced bool, spans, out string) int {
	start := time.Now()
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	var results []*runResult
	for _, w := range ws {
		args := []string{"-child", "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds)}
		if traced {
			args = append(args, "-trace", "1")
			if spans != "" {
				args = append(args, "-spans", spansPath(spans, w.name, len(ws)))
			}
		}
		fmt.Fprintf(os.Stderr, "bench: running %s (seed %d, %gs)\n", w.name, seed, seconds)
		res, err := runChildProcess(self, args)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		results = append(results, res)
	}

	env := environment(seed, seconds, time.Since(start).Seconds())
	for _, res := range results {
		printResult(os.Stdout, res, traced)
	}
	fmt.Printf("\n%s\n", env.summary())
	if out != "" {
		if err := writeReport(out, env, results); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}

	line := resultLine(results, traced)
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(data))
	if !line.Correct {
		return 1
	}
	return 0
}

func spansPath(path, workload string, n int) string {
	if n == 1 {
		return path
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + workload + ext
}

func runChildProcess(self string, args []string) (*runResult, error) {
	// The child gets SIGKILL if the thread that started it exits, so a
	// killed parent leaves no workload running.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cmd := exec.Command(self, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("reading child result: %w", err)
	}
	return &res, nil
}

// line is the benchmark's last line of standard output.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultLine folds the workload results into the last line: end-to-end
// metrics untraced, per-layer metrics traced. With several workloads each
// metric name is prefixed with its workload.
func resultLine(results []*runResult, traced bool) line {
	l := line{Correct: true, Metrics: map[string]metric{}}
	for _, res := range results {
		l.Correct = l.Correct && res.Correct
		l.Attempted += res.Attempted
		l.Failed += res.Failed
		ms := res.Metrics
		if traced {
			ms = res.Layers
		}
		for name, m := range ms {
			if len(results) > 1 {
				name = res.Workload + "/" + name
			}
			l.Metrics[name] = m
		}
	}
	return l
}
