// Command dcgsim runs one benchmark (or the full suite) under one or more
// clock-gating schemes and prints performance, utilisation, and power
// statistics. When several timing-neutral schemes (e.g. none, dcg,
// oracle) are requested together, the benchmark's core timing is
// simulated once and each scheme is evaluated by replaying the captured
// usage trace; -scheme accepts any name in the scheme registry (the
// -help text enumerates them).
//
// Usage:
//
//	dcgsim -bench gcc -scheme dcg -n 500000
//	dcgsim -bench all -scheme none,dcg,oracle -n 200000
//	dcgsim -bench mcf -scheme plb-ext -deep -v
//	dcgsim -bench gzip -scheme dcg -trace-out gzip.trace.json
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"dcg/internal/config"
	"dcg/internal/core"
	"dcg/internal/obs"
	"dcg/internal/power"
	"dcg/internal/stats"
	"dcg/internal/trace"
	"dcg/internal/workload"
)

func main() {
	var (
		bench   = flag.String("bench", "all", "benchmark name, or 'all', 'int', 'fp'")
		scheme  = flag.String("scheme", "dcg", "gating scheme(s), comma-separated: "+schemeNames())
		n       = flag.Uint64("n", 200_000, "dynamic instructions to simulate per benchmark")
		deep    = flag.Bool("deep", false, "use the 20-stage deep pipeline (section 5.6)")
		verbose = flag.Bool("v", false, "print the per-component energy breakdown")
		record  = flag.String("record", "", "capture the benchmark's dynamic stream to a trace file and exit")
		replay  = flag.String("replay", "", "simulate a previously recorded trace file instead of a benchmark")
		profile = flag.String("profile", "", "run a custom workload profile from a JSON file")

		traceOut    = flag.String("trace-out", "", "write pipeline telemetry as Chrome trace-event JSON (Perfetto-viewable); single -bench and -scheme")
		traceCSV    = flag.String("trace-csv", "", "write pipeline telemetry as per-window CSV; single -bench and -scheme")
		traceWindow = flag.Uint64("trace-window", obs.DefaultTraceWindow, "telemetry sample window in cycles")
		spanOut     = flag.String("span-out", "", "write capture/replay spans as JSONL to this file (same span model as the service's /v1/traces)")
		spanSlowMS  = flag.Int("span-slow-ms", 0, "report spans slower than this many milliseconds on stderr (0 = off)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap (allocation) profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcgsim:", err)
		os.Exit(2)
	}
	// Span tracing (the batch CLI's view of the service's span model):
	// one root span per benchmark, child spans per capture and replay,
	// exported as JSONL on exit. Off unless -span-out is given.
	var tracer *obs.Tracer
	if *spanOut != "" {
		tracer = obs.NewTracer(0)
		tracer.SetSlowThreshold(time.Duration(*spanSlowMS) * time.Millisecond)
		tracer.SetLogger(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	}
	writeSpans := func() {
		if tracer == nil {
			return
		}
		out, err := os.Create(*spanOut)
		if err == nil {
			err = obs.WriteSpansJSONL(out, tracer.Spans(obs.SpanFilter{}))
			if cerr := out.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcgsim: writing -span-out:", err)
		}
	}

	// exit flushes the profiles and spans before terminating; every path
	// below must leave through it (os.Exit skips deferred calls).
	exit := func(code int) {
		writeSpans()
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "dcgsim:", err)
		}
		os.Exit(code)
	}

	var kinds []core.SchemeKind
	for _, name := range strings.Split(*scheme, ",") {
		kind, err := core.ParseScheme(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(2)
		}
		kinds = append(kinds, kind)
	}
	kind := kinds[0]
	if len(kinds) > 1 && (*record != "" || *replay != "" || *profile != "") {
		fmt.Fprintln(os.Stderr, "dcgsim: -record/-replay/-profile take a single -scheme")
		exit(2)
	}

	machine := core.DefaultMachine()
	if *deep {
		machine = core.DeepMachine()
	}
	sim := core.NewSimulator(machine)

	if *traceOut != "" || *traceCSV != "" {
		switch {
		case len(kinds) > 1:
			fmt.Fprintln(os.Stderr, "dcgsim: -trace-out/-trace-csv take a single -scheme")
			exit(2)
		case *bench == "all" || *bench == "int" || *bench == "fp":
			fmt.Fprintln(os.Stderr, "dcgsim: -trace-out/-trace-csv take a single -bench name")
			exit(2)
		case *record != "" || *replay != "" || *profile != "":
			fmt.Fprintln(os.Stderr, "dcgsim: -trace-out/-trace-csv cannot combine with -record/-replay/-profile")
			exit(2)
		}
		if err := runPipeTrace(sim, machine, *bench, kind, *n, *traceOut, *traceCSV, *traceWindow, *verbose); err != nil {
			fmt.Fprintln(os.Stderr, "dcgsim:", err)
			exit(1)
		}
		exit(0)
	}

	if *record != "" {
		if err := recordTrace(*record, *bench, *n); err != nil {
			fmt.Fprintln(os.Stderr, "dcgsim:", err)
			exit(1)
		}
		exit(0)
	}
	if *replay != "" {
		if err := replayTrace(sim, *replay, kind, *verbose); err != nil {
			fmt.Fprintln(os.Stderr, "dcgsim:", err)
			exit(1)
		}
		exit(0)
	}
	if *profile != "" {
		if err := runProfile(sim, *profile, kind, *n, *verbose); err != nil {
			fmt.Fprintln(os.Stderr, "dcgsim:", err)
			exit(1)
		}
		exit(0)
	}

	var names []string
	switch *bench {
	case "all":
		names = core.Benchmarks()
	case "int":
		names = core.IntBenchmarks()
	case "fp":
		names = core.FPBenchmarks()
	default:
		names = []string{*bench}
	}

	headers := []string{"bench", "IPC", "save%", "int-u%", "fp-u%", "latch%", "dport%", "bus%", "bpred%", "dl1m%"}
	if len(kinds) > 1 {
		headers = append([]string{"bench", "scheme"}, headers[1:]...)
	}
	tbl := stats.NewTable(
		fmt.Sprintf("scheme=%s insts=%d depth=%d", *scheme, *n, machine.Pipeline.Depth),
		headers...)
	var savings []float64
	for _, name := range names {
		bctx := context.Background()
		var bsp *obs.Span
		if tracer != nil {
			bctx, bsp = tracer.StartRoot(bctx, "sim.bench")
			bsp.SetAttr("bench", name)
			bsp.SetAttrInt("insts", int64(*n))
		}
		results, err := runSchemes(bctx, sim, name, kinds, *n)
		bsp.SetError(err)
		bsp.Finish()
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcgsim: %s: %v\n", name, err)
			exit(1)
		}
		for i, res := range results {
			row := []any{name}
			if len(kinds) > 1 {
				row = append(row, kinds[i].String())
			}
			row = append(row,
				fmt.Sprintf("%.2f", res.IPC),
				100*res.Saving,
				100*res.Util.IntUnits, 100*res.Util.FPUnits, 100*res.Util.Latches,
				100*res.Util.DPorts, 100*res.Util.ResultBus,
				100*res.BranchAccuracy, 100*res.DL1MissRate)
			tbl.AddRowf(row...)
			savings = append(savings, res.Saving)
			if *verbose {
				fmt.Println(res.Summary())
				fmt.Println(res.Energy.String())
			}
		}
	}
	fmt.Print(tbl.String())
	fmt.Printf("mean saving: %.1f%%\n", 100*stats.Mean(savings))

	if *verbose {
		m, _ := power.NewModel(machine)
		fmt.Printf("baseline per-cycle power: %.0f units\n", m.AllOnPower())
	}
	exit(0)
}

// schemeNames enumerates the registered schemes for the -scheme flag's
// help text, so the usage output can never drift from the registry.
func schemeNames() string {
	kinds := core.AllSchemes()
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = string(k)
	}
	return strings.Join(names, ", ")
}

// runSchemes evaluates every requested scheme on one benchmark with one
// capture per capture throttle (core.SchemeInfo.Timing): the
// timing-neutral schemes share an unthrottled capture, plb-ext and
// dcg+plb one under plb-ext's throttle, and plb-orig one under its own.
// Each capture records the union of the trace channels its schemes need
// (e.g. latchvalue for the ddcg family) as a packed view alone, since
// nothing here reads the trace's bytes, and core.EvaluateTimingAll
// evaluates the rest of its schemes on it, bit-identically to direct
// runs.
func runSchemes(ctx context.Context, sim *core.Simulator, bench string, kinds []core.SchemeKind, n uint64) ([]*core.Result, error) {
	out := make([]*core.Result, len(kinds))
	for i, k := range kinds {
		if out[i] != nil {
			continue
		}
		info, _ := core.SchemeInfoFor(k)
		var rest []core.SchemeKind // the later kinds sharing k's throttle, at idx
		var idx []int
		for j := i + 1; j < len(kinds); j++ {
			if other, _ := core.SchemeInfoFor(kinds[j]); other.Timing == info.Timing {
				rest, idx = append(rest, kinds[j]), append(idx, j)
			}
		}
		_, csp := obs.StartSpan(ctx, "sim.capture")
		csp.SetAttrInt("schemes", int64(1+len(rest)))
		if info.Timing != "" {
			csp.SetAttr("throttle", info.Timing.String())
		}
		res, tm, err := sim.RunAndCapture(core.WithViewOnlyCapture(ctx), bench, k, n, core.ChannelUnion(rest...)...)
		csp.SetError(err)
		csp.Finish()
		if err != nil {
			return nil, fmt.Errorf("%v: %w", k, err)
		}
		out[i] = res
		if len(rest) == 0 {
			continue
		}
		_, rsp := obs.StartSpan(ctx, "sim.replay")
		rsp.SetAttrInt("schemes", int64(len(rest)))
		more, err := sim.EvaluateTimingAll(tm, rest)
		rsp.SetError(err)
		rsp.Finish()
		if err != nil {
			return nil, err
		}
		for j, r := range more {
			out[idx[j]] = r
		}
	}
	return out, nil
}

// runPipeTrace runs one benchmark under one scheme with the pipeline
// telemetry recorder attached and writes the requested exports: Chrome
// trace-event JSON (jsonPath) and/or per-window CSV (csvPath).
func runPipeTrace(sim *core.Simulator, machine config.Config, bench string, kind core.SchemeKind, n uint64, jsonPath, csvPath string, window uint64, verbose bool) error {
	rec := obs.NewPipelineRecorder(machine, window, bench+"/"+kind.String())
	res, err := sim.RunBenchmarkTelemetry(context.Background(), bench, kind, n, rec)
	if err != nil {
		return err
	}
	write := func(path string, render func(w *os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := render(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if jsonPath != "" {
		if err := write(jsonPath, func(f *os.File) error { return rec.WriteChromeTrace(f) }); err != nil {
			return err
		}
		fmt.Printf("wrote %d trace windows (%d cycles each) to %s\n", rec.Windows(), window, jsonPath)
	}
	if csvPath != "" {
		if err := write(csvPath, func(f *os.File) error { return rec.WriteCSV(f) }); err != nil {
			return err
		}
		fmt.Printf("wrote %d telemetry rows to %s\n", rec.Windows(), csvPath)
	}
	fmt.Print(res.Summary())
	if verbose {
		fmt.Println(res.Energy.String())
	}
	return nil
}

// recordTrace captures a benchmark's dynamic stream to a trace file.
func recordTrace(path, bench string, n uint64) error {
	prof, ok := workload.ByName(bench)
	if !ok {
		return fmt.Errorf("unknown benchmark %q (use a single name with -record)", bench)
	}
	gen, err := workload.NewGenerator(prof)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	count, err := trace.Record(f, gen, n)
	if err != nil {
		return err
	}
	fmt.Printf("recorded %d instructions of %s to %s\n", count, bench, path)
	return nil
}

// replayTrace simulates a recorded trace file and prints the run.
func replayTrace(sim *core.Simulator, path string, kind core.SchemeKind, verbose bool) error {
	res, err := runTraceFile(sim, path, kind)
	if err != nil {
		return err
	}
	fmt.Print(res.Summary())
	if verbose {
		fmt.Println(res.Energy.String())
	}
	return nil
}

// runTraceFile simulates a recorded trace file's every record under the
// scheme.
func runTraceFile(sim *core.Simulator, path string, kind core.SchemeKind) (*core.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	src, err := trace.NewReader(f)
	if err != nil {
		return nil, err
	}
	res, err := sim.RunSource(src, kind)
	if err != nil {
		return nil, err
	}
	return res, src.Err()
}

// runProfile simulates a custom JSON workload profile.
func runProfile(sim *core.Simulator, path string, kind core.SchemeKind, n uint64, verbose bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	prof, err := workload.LoadProfile(f)
	if err != nil {
		return err
	}
	gen, err := workload.NewGenerator(prof)
	if err != nil {
		return err
	}
	res, err := sim.RunStream(gen, kind, n)
	if err != nil {
		return err
	}
	fmt.Print(res.Summary())
	if verbose {
		fmt.Println(res.Energy.String())
	}
	return nil
}
