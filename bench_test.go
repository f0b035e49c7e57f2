// Package dcg's root benchmark harness regenerates every table and figure
// of the paper's evaluation as a testing.B benchmark (one per exhibit),
// reporting the headline quantities as custom metrics, plus throughput
// micro-benchmarks for the substrate components.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Regenerate one figure's numbers at higher fidelity:
//
//	go test -bench=Fig10 -benchtime=1x
//	go run ./cmd/dcgrepro -n 500000   # full-resolution tables
package dcg_test

import (
	"bytes"
	"context"
	"testing"

	"dcg/internal/config"
	"dcg/internal/core"
	"dcg/internal/cpu"
	"dcg/internal/experiments"
	"dcg/internal/gating"
	"dcg/internal/mem"
	"dcg/internal/simrun"
	"dcg/internal/trace"
	"dcg/internal/usagetrace"
	"dcg/internal/workload"
)

// benchInsts keeps each exhibit's regeneration fast enough for -bench=.
// while preserving the paper's shape; cmd/dcgrepro runs the full version.
const benchInsts = 60_000

// benchSubset is a representative 4-benchmark slice (2 int + 2 fp,
// including the mcf/lucas stall outlier class).
var benchSubset = []string{"gzip", "mcf", "swim", "mesa"}

func newRunner() *experiments.Runner {
	return experiments.NewRunner(experiments.Options{
		Insts:      benchInsts,
		Warmup:     50_000,
		Benchmarks: benchSubset,
	})
}

// BenchmarkTable1Baseline measures a baseline (no gating) run of the
// Table 1 machine and reports its IPC — the substrate under every figure.
func BenchmarkTable1Baseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim := core.NewSimulator(core.DefaultMachine())
		res, err := sim.RunBenchmark("gcc", core.SchemeNone, benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.IPC, "IPC")
		b.ReportMetric(float64(res.Cycles), "cycles")
	}
}

// BenchmarkSec44IntALUSweep regenerates the section 4.4 sweep (8/6/4
// integer ALUs) and reports the relative performance of the 6- and 4-ALU
// machines (paper: 98.8% and 92.7% worst-case).
func BenchmarkSec44IntALUSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := newRunner().Sec44ALUSweep()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*s.Rows[1].RelPerf, "relperf6%")
		b.ReportMetric(100*s.Rows[2].RelPerf, "relperf4%")
	}
}

// reportComparison publishes each series' suite means as metrics.
func reportComparison(b *testing.B, c *experiments.Comparison) {
	b.Helper()
	for _, s := range c.Series {
		b.ReportMetric(100*s.IntMean, s.Scheme+"-int%")
		b.ReportMetric(100*s.FPMean, s.Scheme+"-fp%")
	}
}

// BenchmarkFig10TotalPower regenerates Figure 10: total power savings of
// DCG vs PLB-orig vs PLB-ext (paper: 20.9/18.8, 6.3/4.9, 11.0/8.7).
func BenchmarkFig10TotalPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := newRunner().Fig10()
		if err != nil {
			b.Fatal(err)
		}
		reportComparison(b, c)
	}
}

// BenchmarkFig11PowerDelay regenerates Figure 11: power-delay savings
// (paper: DCG equals its power saving; PLB-orig 3.5/2.0; PLB-ext 8.3/5.9).
func BenchmarkFig11PowerDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := newRunner().Fig11()
		if err != nil {
			b.Fatal(err)
		}
		reportComparison(b, c)
	}
}

// BenchmarkFig12IntUnits regenerates Figure 12: integer execution unit
// power savings (paper: DCG ~72%, PLB-ext ~29.6%).
func BenchmarkFig12IntUnits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := newRunner().Fig12()
		if err != nil {
			b.Fatal(err)
		}
		reportComparison(b, c)
	}
}

// BenchmarkFig13FPUnits regenerates Figure 13: FP unit power savings
// (paper: DCG 77.2% on fp / ~100% on int; PLB-ext 23.0%).
func BenchmarkFig13FPUnits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := newRunner().Fig13()
		if err != nil {
			b.Fatal(err)
		}
		reportComparison(b, c)
	}
}

// BenchmarkFig14Latches regenerates Figure 14: pipeline latch power
// savings including DCG's control overhead (paper: DCG 41.6%, PLB-ext
// 17.6%).
func BenchmarkFig14Latches(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := newRunner().Fig14()
		if err != nil {
			b.Fatal(err)
		}
		reportComparison(b, c)
	}
}

// BenchmarkFig15DCache regenerates Figure 15: D-cache power savings
// (paper: DCG 22.6%, PLB-ext 8.1%).
func BenchmarkFig15DCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := newRunner().Fig15()
		if err != nil {
			b.Fatal(err)
		}
		reportComparison(b, c)
	}
}

// BenchmarkFig16ResultBus regenerates Figure 16: result bus driver power
// savings (paper: DCG 59.6%, PLB-ext 32.2%).
func BenchmarkFig16ResultBus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := newRunner().Fig16()
		if err != nil {
			b.Fatal(err)
		}
		reportComparison(b, c)
	}
}

// BenchmarkFig17DeepPipeline regenerates Figure 17: DCG savings on the
// 8-stage vs 20-stage pipeline (paper: 19.9% vs 24.5%).
func BenchmarkFig17DeepPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := newRunner().Fig17()
		if err != nil {
			b.Fatal(err)
		}
		s8, s20 := c.Series[0], c.Series[1]
		b.ReportMetric(100*(s8.IntMean+s8.FPMean)/2, "8stage%")
		b.ReportMetric(100*(s20.IntMean+s20.FPMean)/2, "20stage%")
	}
}

// BenchmarkUtilization regenerates the section 5.2-5.5 baseline structure
// utilisations that the paper's expected-savings arithmetic builds on.
func BenchmarkUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		u, err := newRunner().Utilization()
		if err != nil {
			b.Fatal(err)
		}
		var intU, latch, ports, bus float64
		for _, row := range u.Rows {
			intU += row.Util.IntUnits
			latch += row.Util.Latches
			ports += row.Util.DPorts
			bus += row.Util.ResultBus
		}
		n := float64(len(u.Rows))
		b.ReportMetric(100*intU/n, "int-util%")
		b.ReportMetric(100*latch/n, "latch-util%")
		b.ReportMetric(100*ports/n, "dport-util%")
		b.ReportMetric(100*bus/n, "bus-util%")
	}
}

// BenchmarkAblationDCGContribution regenerates the mechanism-contribution
// ablation (units -> +latches -> +dcache -> +bus) and reports each step's
// cumulative saving.
func BenchmarkAblationDCGContribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := newRunner().DCGContribution()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*a.Rows[0].Saving, "units%")
		b.ReportMetric(100*a.Rows[1].Saving, "+latch%")
		b.ReportMetric(100*a.Rows[2].Saving, "+dcache%")
		b.ReportMetric(100*a.Rows[3].Saving, "full%")
	}
}

// BenchmarkAblationSelectionPolicy regenerates the section 3.1 policy
// ablation and reports clock-gate control toggles per cycle.
func BenchmarkAblationSelectionPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := newRunner().SelectionPolicy()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*a.Rows[0].Saving, "seq%")
		b.ReportMetric(100*a.Rows[1].Saving, "rr%")
	}
}

// BenchmarkAblationLeakage regenerates the leakage-erosion sweep.
func BenchmarkAblationLeakage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := newRunner().Leakage()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*a.Rows[0].Saving, "lk0%")
		b.ReportMetric(100*a.Rows[len(a.Rows)-1].Saving, "lk40%")
	}
}

// ---- Substrate micro-benchmarks ----

// BenchmarkSimulatorThroughput measures raw simulation speed in
// instructions per second of host time.
func BenchmarkSimulatorThroughput(b *testing.B) {
	prof, _ := workload.ByName("gcc")
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		gen, err := workload.NewGenerator(prof)
		if err != nil {
			b.Fatal(err)
		}
		c, err := cpu.New(config.Default(), trace.NewLimitSource(gen, 100_000))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(0); err != nil {
			b.Fatal(err)
		}
		total += 100_000
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkWorkloadGenerator measures stream generation throughput.
func BenchmarkWorkloadGenerator(b *testing.B) {
	prof, _ := workload.ByName("swim")
	gen, err := workload.NewGenerator(prof)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next()
	}
}

// BenchmarkCacheAccess measures the D-cache model's access latency.
func BenchmarkCacheAccess(b *testing.B) {
	c, err := mem.NewCache(config.Default().DL1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i*64)&0xFFFFF, i&7 == 0)
	}
}

// BenchmarkDCGRun measures a full DCG-instrumented simulation (core +
// power accounting + gating controller), the configuration every figure
// uses.
func BenchmarkDCGRun(b *testing.B) {
	sim := core.NewSimulator(core.DefaultMachine())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.RunBenchmark("swim", core.SchemeDCG, benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Saving, "save%")
	}
}

// ---- Capture-once / replay-many ----

// BenchmarkCaptureTiming measures the capture side of the split: one core
// timing simulation recording its per-cycle usage trace. The trace size
// is reported so the timing cache's residency cost is visible.
func BenchmarkCaptureTiming(b *testing.B) {
	sim := core.NewSimulator(core.DefaultMachine())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm, err := sim.CaptureBenchmark("swim", benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(tm.Trace.SizeBytes()), "trace-B")
		b.ReportMetric(float64(tm.Trace.Cycles()), "cycles")
	}
}

// BenchmarkReplayEvaluate measures the replay side: evaluating the DCG
// scheme on the scalar engine by streaming a captured trace through the
// gating controller and power accountant, with no core timing work.
// Compare per-op time against BenchmarkDCGRun (the same evaluation done
// the direct way) for the capture-once/replay-many speedup.
func BenchmarkReplayEvaluate(b *testing.B) {
	sim := core.NewSimulator(core.DefaultMachine())
	tm, err := sim.CaptureBenchmark("swim", benchInsts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.EvaluateScalar(tm, newSchemes(b, sim, core.SchemeDCG))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res[0].Saving, "save%")
	}
}

// newSchemes instantiates fresh schemes of the given kinds for sim's
// machine, as the scalar engine takes them.
func newSchemes(b *testing.B, sim *core.Simulator, kinds ...core.SchemeKind) []gating.Scheme {
	schemes := make([]gating.Scheme, len(kinds))
	for i, k := range kinds {
		info, ok := core.SchemeInfoFor(k)
		if !ok {
			b.Fatalf("unknown scheme %v", k)
		}
		schemes[i] = info.New(sim)
	}
	return schemes
}

// replayKinds is the full timing-neutral scheme set — every scheme the
// replay path accepts — used by the fused-vs-sequential benchmark pair.
var replayKinds = []core.SchemeKind{core.SchemeNone, core.SchemeDCG, core.SchemeOracle}

// BenchmarkReplaySingle measures the pre-fusion way of evaluating k
// schemes over one capture: k independent sequential scalar replays, each
// streaming its own parse of the encoded trace. One op = all k schemes,
// so ns/op compares directly against BenchmarkReplayFusedN.
func BenchmarkReplaySingle(b *testing.B) {
	sim := core.NewSimulator(core.DefaultMachine())
	tm, err := sim.CaptureBenchmark("swim", benchInsts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, kind := range replayKinds {
			if _, err := sim.EvaluateScalar(tm, newSchemes(b, sim, kind)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkReplayFusedN measures the fused engine on the same work as
// BenchmarkReplaySingle: all k schemes evaluated in one streaming pass
// over the encoded trace instead of k (see docs/PERFORMANCE.md).
// Results are bit-identical to the sequential path
// (TestFusedReplayMatchesSequentialBitForBit). EvaluateScalar names the
// scalar fused engine, so this measures it specifically;
// BenchmarkReplayPackedN is the packed counterpart.
func BenchmarkReplayFusedN(b *testing.B) {
	sim := core.NewSimulator(core.DefaultMachine())
	tm, err := sim.CaptureBenchmark("swim", benchInsts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := sim.EvaluateScalar(tm, newSchemes(b, sim, replayKinds...))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*results[1].Saving, "dcg-save%")
	}
}

// BenchmarkReplayPackedN measures the bit-packed columnar kernel on the
// same work as BenchmarkReplayFusedN: all k timing-neutral schemes
// derived word-at-a-time from the decode-time bit-planes and schedule
// aggregates, no per-cycle callbacks at all. Results are bit-identical
// to both scalar paths (TestPackedReplayMatchesScalarBitForBit).
func BenchmarkReplayPackedN(b *testing.B) {
	sim := core.NewSimulator(core.DefaultMachine())
	tm, err := sim.CaptureBenchmark("swim", benchInsts)
	if err != nil {
		b.Fatal(err)
	}
	benchPacked(b, sim, tm)
}

// benchPacked times the router over replayKinds, which the packed kernel
// serves whole: a scheme falling back to the scalar engine fails the
// benchmark rather than timing the wrong engine.
func benchPacked(b *testing.B, sim *core.Simulator, tm *core.Timing) {
	fallback0 := core.PackedReplayFallbacks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := sim.EvaluateTimingAll(tm, replayKinds)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*results[1].Saving, "dcg-save%")
	}
	if n := core.PackedReplayFallbacks() - fallback0; n != 0 {
		b.Fatalf("%d scheme evaluations fell back to the scalar engine", n)
	}
}

// BenchmarkReadTrace measures loading a stored trace: ReadTrace over the
// gzip-framed encoding of a capture, as the artifact store holds it
// (inflate, then the one validating pass that builds the packed view).
// swim is an ordinary trace; mcf spends most of its cycles stalled, so
// most of its cycles are repeat records. ns/cycle compares traces of
// different lengths.
func BenchmarkReadTrace(b *testing.B) {
	sim := core.NewSimulator(core.DefaultMachine())
	for _, bench := range []string{"swim", "mcf"} {
		tm, err := sim.CaptureBenchmark(bench, benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		var stored bytes.Buffer
		if err := tm.Trace.EncodeGzip(&stored); err != nil {
			b.Fatal(err)
		}
		b.Run(bench, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := usagetrace.ReadTrace(bytes.NewReader(stored.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tm.Trace.Cycles()), "ns/cycle")
		})
	}
}

// ---- Channelized traces (format v2) ----

// BenchmarkCaptureTimingChannels is BenchmarkCaptureTiming with the
// latchvalue channel recorded alongside usage — the capture a sweep
// runs when its scheme set includes the value-dependent family. The
// reported trace-B shows the channel's size cost over the usage-only
// capture.
func BenchmarkCaptureTimingChannels(b *testing.B) {
	sim := core.NewSimulator(core.DefaultMachine())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm, err := sim.CaptureBenchmark("swim", benchInsts, usagetrace.ChannelLatchValue)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(tm.Trace.SizeBytes()), "trace-B")
	}
}

// BenchmarkReplayPackedNChannelized runs the packed kernel's scheme set
// over a trace that also carries the latchvalue channel: the extra
// channel must not tax the packed path (it is decoded once and ignored
// by the bit-plane kernels), so per-op time should match
// BenchmarkReplayPackedN.
func BenchmarkReplayPackedNChannelized(b *testing.B) {
	sim := core.NewSimulator(core.DefaultMachine())
	tm, err := sim.CaptureBenchmark("swim", benchInsts, usagetrace.ChannelLatchValue)
	if err != nil {
		b.Fatal(err)
	}
	benchPacked(b, sim, tm)
}

// valueKinds is the value-dependent family: both replay `scalar` (the
// per-lane comparator state needs the per-cycle stream), so this set
// exercises the fused scalar engine even with packed replay enabled.
var valueKinds = []core.SchemeKind{core.SchemeDDCG, core.SchemeDCGDDCG}

// BenchmarkReplayScalarDDCG measures the value-dependent replay path:
// the ddcg family evaluated in one fused pass over a latchvalue-carrying
// capture. This is the cost model for the `families` comparison's second
// timing group.
func BenchmarkReplayScalarDDCG(b *testing.B) {
	sim := core.NewSimulator(core.DefaultMachine())
	tm, err := sim.CaptureBenchmark("swim", benchInsts, usagetrace.ChannelLatchValue)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := sim.EvaluateTimingAll(tm, valueKinds)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*results[0].Saving, "ddcg-save%")
	}
}

// BenchmarkExecReplayUntraced drives the executor's replay-serving path
// with tracing disabled — the configuration every deployment runs until
// a tracer is attached. The two keys alternate through a result memo of
// one entry, so every op misses the memo and is answered by replaying
// the shared timing capture through Exec.Do's full span-instrumented
// path. CI gates this benchmark's allocs/op against the committed
// baseline: span instrumentation must stay free when no span is in the
// context.
func BenchmarkExecReplayUntraced(b *testing.B) {
	exec := simrun.NewExec(1, 0)
	ctx := context.Background()
	warm := simrun.Key{Bench: "swim", Scheme: core.SchemeDCG, Insts: benchInsts}
	if _, _, err := exec.Do(ctx, warm); err != nil {
		b.Fatal(err)
	}
	keys := [2]simrun.Key{
		{Bench: "swim", Scheme: core.SchemeNone, Insts: benchInsts},
		{Bench: "swim", Scheme: core.SchemeOracle, Insts: benchInsts},
	}
	// One replay outside the timer builds the trace's packed view once,
	// so the timed ops measure steady-state replay cost only.
	if _, _, err := exec.Do(ctx, keys[1]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := exec.Do(ctx, keys[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}
