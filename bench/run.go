package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// runConfig is one workload run.
type runConfig struct {
	w     workloadSpec
	seed  int64
	sz    sizing
	trace bool
	// spans, when set, receives the traced run's spans as JSON lines.
	spans string
	// tmpRoot holds the run's store and sweep job directories, removed
	// when the run ends.
	tmpRoot string
	// started is when the process started; setup is timed from it.
	started time.Time
}

// runResult is what one workload run reports. A child process prints it
// as JSON on its last line of standard output.
type runResult struct {
	Workload  string `json:"workload"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Metrics are the end-to-end metrics of the untraced window; Reported
	// are measured there too but not gated (see README.md).
	Metrics  map[string]metric `json:"metrics"`
	Reported map[string]metric `json:"reported"`
	// Layers are the per-layer metrics; LayerMs is each layer's time per
	// op. Both come from a traced run only.
	Layers  map[string]metric  `json:"layers,omitempty"`
	LayerMs map[string]float64 `json:"layer_ms_per_op,omitempty"`
	// Sim holds the determinism and paper anchors (counts, not timings).
	Sim          map[string]float64 `json:"sim"`
	RefChecked   int                `json:"ref_checked"`
	SetupRoundsS []float64          `json:"setup_rounds_s"`
	WindowS      float64            `json:"window_s"`
	RSSReset     bool               `json:"rss_reset"`
	Failures     []string           `json:"failures,omitempty"`
}

// runWorkload plans, sets up, measures, checks and (when tracing) traces
// one workload in this process.
func runWorkload(ctx context.Context, cfg runConfig) (*runResult, error) {
	ops := planOps(cfg.w, cfg.seed, cfg.sz)
	if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.tmpRoot, cfg.w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	t, setupDurs, err := setup(ctx, cfg, ops, dir)
	if err != nil {
		return nil, err
	}
	// The traced run needs the store as set-up left it: a hard-link
	// snapshot for restart-sweep, an empty directory otherwise.
	tracedStore := filepath.Join(dir, "traced-store")
	if cfg.trace && cfg.w.kind == opSweep {
		if err := linkTree(filepath.Join(dir, "store"), tracedStore); err != nil {
			return nil, fmt.Errorf("snapshotting the store: %w", err)
		}
	}
	m, err := measure(ctx, t, ops, cfg.sz.seconds)
	t.close()
	if err != nil {
		return nil, err
	}
	t = nil // let the service's caches go before the checks

	res := &runResult{
		Workload: cfg.w.name, Attempted: len(m.recs), SetupRoundsS: setupDurs,
		RSSReset: m.rssReset, WindowS: m.window(),
	}
	failed := map[int]error{}
	var lat []float64
	ok := map[int]*record{}
	for i := range m.recs {
		rec := &m.recs[i]
		if rec.err != nil {
			failed[rec.op.ID] = rec.err
			continue
		}
		ok[rec.op.ID] = rec
		lat = append(lat, rec.latencyMs())
	}
	opsPerS, cpuMs := perRound(m.recs, roundSize(cfg.sz))
	res.Metrics = metricSet(endToEnd, map[string]float64{
		"setup_s":          median(setupDurs),
		"latency_p50_ms":   median(lat),
		"throughput_ops_s": median(opsPerS),
		"cpu_ms_per_op":    median(cpuMs),
	})

	checked, mismatches := referenceCheck(ctx, m.recs)
	for id, diffs := range mismatches {
		failed[id] = fmt.Errorf("op %d differs from the reference run: %s", id, strings.Join(diffs, "; "))
	}
	res.RefChecked = checked
	fmt.Fprintf(os.Stderr, "bench: %s: reference check re-derived %d of %d ops with core.Simulator.RunBenchmarkContext: %d mismatched\n",
		cfg.w.name, checked, len(m.recs), len(mismatches))
	res.Sim = simAnchors(m.recs)

	if cfg.trace {
		if err := traceLayers(ctx, cfg, ops, m, ok, failed, res, tracedStore, filepath.Join(dir, "traced-jobs")); err != nil {
			return nil, err
		}
	}

	res.Failed = len(failed)
	res.Correct = len(failed) == 0 && checked > 0
	res.Reported = metricSet(reported, map[string]float64{
		"latency_p90_ms": nearestRank(lat, 0.9),
		"peak_rss_mb":    m.rss,
		"error_rate":     float64(len(failed)) / float64(len(m.recs)),
	})
	ids := make([]int, 0, len(failed))
	for id := range failed {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if len(res.Failures) == 5 {
			break
		}
		res.Failures = append(res.Failures, failed[id].Error())
	}
	for _, f := range res.Failures {
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED %s\n", cfg.w.name, f)
	}
	return res, nil
}

// window is what the measured window observed.
type window struct {
	recs     []record
	gcCPU    float64 // GC CPU seconds over the window
	heapPeak float64 // MB
	rss      float64 // MB, median sub-window peak
	rssReset bool
	// before and after are the service's counters (HTTP workloads only).
	before, after map[string]float64
}

// measure drives the op list and brackets it with the process samples.
func measure(ctx context.Context, t target, ops []op, seconds float64) (*window, error) {
	m := &window{}
	serving, isServing := t.(*servingTarget)
	var err error
	if isServing {
		if m.before, err = serving.scrape(); err != nil {
			return nil, fmt.Errorf("scraping /metrics: %w", err)
		}
	}
	// Start from a collected heap returned to the OS, so set-up garbage
	// neither inflates the peak nor paces the window's first GCs.
	debug.FreeOSMemory()
	m.rssReset = resetPeakRSS()
	// Peak RSS is taken per fifth of the run length.
	mem := startMemSampler(time.Duration(seconds / 5 * float64(time.Second)))
	gc0 := gcCPUSeconds()
	m.recs = drive(ctx, t, ops)
	m.gcCPU = gcCPUSeconds() - gc0
	m.heapPeak, m.rss = mem.stopSampling()
	if isServing {
		if m.after, err = serving.scrape(); err != nil {
			return nil, fmt.Errorf("scraping /metrics: %w", err)
		}
	}
	return m, nil
}

// window returns the seconds from the first op's submit to the last
// response.
func (m *window) window() float64 {
	return m.recs[len(m.recs)-1].done.Sub(m.recs[0].due).Seconds()
}

// traceLayers replays the op list traced and fills in the per-layer
// metrics. A traced op that fails, or whose results differ from the
// untraced run's, fails.
func traceLayers(ctx context.Context, cfg runConfig, ops []op, m *window, ok map[int]*record,
	failed map[int]error, res *runResult, storeDir, jobsDir string) error {
	nOK := float64(max(len(ok), 1))
	var late []float64
	for i := range m.recs {
		late = append(late, ms(m.recs[i].late.Nanoseconds()))
	}
	base := map[string]float64{
		"go.gc_cpu_ms":          m.gcCPU * 1000 / nOK,
		"go.heap_peak_mb":       m.heapPeak,
		"bench.gen_late_p90_ms": nearestRank(late, 0.9),
	}
	http := m.before != nil
	if http {
		if n := m.after["dcgserve_worker_wait_seconds_count"] - m.before["dcgserve_worker_wait_seconds_count"]; n > 0 {
			base["server.worker_wait_ms_mean"] = 1000 * (m.after["dcgserve_worker_wait_seconds_sum"] - m.before["dcgserve_worker_wait_seconds_sum"]) / n
		}
		base["server.sims_run"] = m.after["dcgserve_sims_run_total"] - m.before["dcgserve_sims_run_total"]
	}
	if cfg.w.kind == opSweep {
		base["sweep.items_per_s"] = float64(len(ok)*len(cfg.w.schemes)) / res.WindowS
	}

	p, err := runTraced(ctx, cfg.w, ops, storeDir, jobsDir)
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	for i := range p.recs {
		tr := &p.recs[i]
		id := tr.op.ID
		if tr.err != nil {
			failed[id] = fmt.Errorf("traced run: %w", tr.err)
			continue
		}
		if rec, in := ok[id]; in {
			for j := range tr.results {
				if d := diffResult(tr.results[j], rec.results[j]); len(d) > 0 {
					failed[id] = fmt.Errorf("op %d: traced run differs: %s", id, strings.Join(d, "; "))
				}
			}
		}
	}
	values, table := layerReport(p, ok, base, http)
	res.Layers = metricSet(perLayer, values)
	res.LayerMs = table
	if cfg.spans != "" {
		if err := writeSpans(cfg.spans, p.rec.spans); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return nil
}
