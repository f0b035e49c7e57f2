package main

import (
	"math"
	"sort"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the service sees. Every workload
// reports all of them from its untraced window. BENCHMARK.json lists the
// same names, units and regression bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_ops_s", "ops/s"},
	{"cpu_ms_per_op", "ms"},
}

// reported are measured with the end-to-end metrics but not gated:
// error_rate must be 0, and p90 and peak RSS spread wider between seeds
// than any regression bound BENCHMARK.json may set (see README.md).
var reported = []metricDef{
	{"latency_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"error_rate", "ratio"},
}

// perLayer are the layer metrics of a traced run, named <layer>.<metric>
// after the module they time. Times are means per op of the time charged
// to the layer (see attribute); counts are totals over the op list. A layer that does no work on
// a workload reads 0 there by design (see README.md).
var perLayer = []metricDef{
	{"workload.gen_ms", "ms"},
	{"cpu.warm_ms", "ms"},
	{"cpu.run_ms", "ms"},
	{"cpu.cycles", "count"},
	{"cpu.host_minsts_per_s", "Minst/s"},
	{"usagetrace.encode_ms", "ms"},
	{"usagetrace.trace_mb", "MB"},
	{"usagetrace.decode_ms", "ms"},
	{"usagetrace.decode_ns_per_cycle", "ns/cycle"},
	{"usagetrace.read_ms", "ms"},
	{"usagetrace.decodes", "count"},
	{"core.replay_packed_ms", "ms"},
	{"core.replay_scalar_ms", "ms"},
	{"core.packed_lanes", "count"},
	{"core.fallback_lanes", "count"},
	{"core.full_ms", "ms"},
	{"core.full_runs", "count"},
	{"store.put_timing_ms", "ms"},
	{"store.put_result_ms", "ms"},
	{"store.get_timing_ms", "ms"},
	{"store.get_result_ms", "ms"},
	{"store.written_mb", "MB"},
	{"store.read_mb", "MB"},
	{"store.hit_ratio", "ratio"},
	{"simrun.lookup_ms", "ms"},
	{"simrun.served.simulated", "count"},
	{"simrun.served.replayed", "count"},
	{"simrun.served.coalesced", "count"},
	{"simrun.served.cache", "count"},
	{"simrun.served.store", "count"},
	{"simrun.timing_hit_ratio", "ratio"},
	{"server.overhead_ms", "ms"},
	{"server.worker_wait_ms_mean", "ms"},
	{"server.sims_run", "count"},
	{"sweep.job_overhead_ms", "ms"},
	{"sweep.items_per_s", "items/s"},
	{"go.gc_cpu_ms", "ms"},
	{"go.heap_peak_mb", "MB"},
	{"bench.gen_late_p90_ms", "ms"},
	{"bench.trace_overhead_ms", "ms"},
	{"bench.layer_sum_ratio", "ratio"},
	{"other_share", "ratio"},
}

// metricSet fills a name → metric map from a definition list; names the
// values map lacks read 0.
func metricSet(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return out
}

const mib = 1 << 20

// median returns the middle value (the mean of the two middle values for
// an even count), 0 for no values.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the q-quantile by the nearest-rank rule: at 100
// samples p90 is the 90th value, with ten samples beyond it.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
