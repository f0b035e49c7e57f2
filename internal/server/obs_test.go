package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// servedTotal sums dcgserve_sim_served_total over its sources: one per
// executor lookup.
func servedTotal(s *Server) uint64 {
	var n uint64
	for _, src := range servedSources {
		n += s.m.served.With(src).Value()
	}
	return n
}

// exposition is a minimally parsed Prometheus text scrape: TYPE per
// family plus every series line (name{labels} -> value), in file order.
type exposition struct {
	types  map[string]string
	series []string
	values map[string]float64
}

// parseExposition parses the text format the /metrics handler emits,
// failing the test on any malformed line.
func parseExposition(t *testing.T, r io.Reader) *exposition {
	t.Helper()
	e := &exposition{types: map[string]string{}, values: map[string]float64{}}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) < 3 || (f[1] != "HELP" && f[1] != "TYPE") {
				t.Fatalf("malformed comment line %q", line)
			}
			if f[1] == "TYPE" {
				if len(f) != 4 {
					t.Fatalf("malformed TYPE line %q", line)
				}
				e.types[f[2]] = f[3]
			}
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed series line %q", line)
		}
		name, val := line[:i], line[i+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil && val != "+Inf" && val != "NaN" {
			t.Fatalf("series %q has unparseable value %q", name, val)
		}
		if _, dup := e.values[name]; dup {
			t.Fatalf("series %q emitted twice", name)
		}
		e.series = append(e.series, name)
		e.values[name] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return e
}

// checkHistogram verifies the _bucket/_sum/_count convention for one
// histogram series (identified by family name + label prefix without le).
func (e *exposition) checkHistogram(t *testing.T, family, labels string) {
	t.Helper()
	prefix := family + "_bucket"
	// Bucket lines splice le into the label braces, so match on the
	// label set minus its closing brace.
	sel := strings.TrimSuffix(labels, "}")
	var last float64 = -1
	var infVal float64
	sawInf := false
	for _, s := range e.series {
		if !strings.HasPrefix(s, prefix) || !strings.Contains(s, sel) {
			continue
		}
		v := e.values[s]
		if v < last {
			t.Errorf("histogram %s%s buckets not cumulative: %q = %v after %v", family, labels, s, v, last)
		}
		last = v
		if strings.Contains(s, `le="+Inf"`) {
			sawInf, infVal = true, v
		}
	}
	if !sawInf {
		t.Fatalf("histogram %s%s has no +Inf bucket", family, labels)
	}
	countName := family + "_count"
	if labels != "" {
		countName = family + "_count" + labels
	}
	count, ok := e.values[countName]
	if !ok {
		t.Fatalf("histogram %s missing %s", family, countName)
	}
	if infVal != count {
		t.Errorf("histogram %s%s: +Inf bucket %v != count %v", family, labels, infVal, count)
	}
}

// TestMetricsExposition is the /metrics golden test: the endpoint serves
// parseable Prometheus text including the request-latency histogram and
// the request, cache and simulation counters.
func TestMetricsExposition(t *testing.T) {
	s := newFakeServer(Config{Workers: 2}, (&countingRunner{}).run)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postSim(t, ts, SimRequest{Benchmark: "gzip", Insts: 1000})
	postSim(t, ts, SimRequest{Benchmark: "gzip", Insts: 1000}) // cache hit

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	e := parseExposition(t, resp.Body)

	wantTypes := map[string]string{
		"dcgserve_request_duration_seconds":     "histogram",
		"dcgserve_request_errors_total":         "counter",
		"dcgserve_sim_served_total":             "counter",
		"dcgserve_sims_run_total":               "counter",
		"dcgserve_sims_inflight":                "gauge",
		"dcgserve_sim_duration_seconds":         "histogram",
		"dcgserve_worker_queue_depth":           "gauge",
		"dcgserve_worker_wait_seconds":          "histogram",
		"dcgserve_workers":                      "gauge",
		"dcgserve_uptime_seconds":               "gauge",
		"dcgserve_draining":                     "gauge",
		"dcgserve_result_cache_hits_total":      "counter",
		"dcgserve_result_cache_misses_total":    "counter",
		"dcgserve_result_cache_evictions_total": "counter",
		"dcgserve_timing_cache_hits_total":      "counter",
		"dcg_trace_decodes_total":               "counter",
		"dcg_trace_decode_reuses_total":         "counter",
		"dcg_replay_packed_schemes_total":       "counter",
		"dcg_warm_state_hits_total":             "counter",
		"dcg_warm_state_misses_total":           "counter",
		"go_goroutines":                         "gauge",
	}
	for name, kind := range wantTypes {
		if got := e.types[name]; got != kind {
			t.Errorf("metric %s: TYPE %q, want %q", name, got, kind)
		}
	}

	checks := map[string]float64{
		`dcgserve_sim_served_total{source="simulated"}`: 1,
		`dcgserve_sim_served_total{source="cache"}`:     1,
		`dcgserve_sim_served_total{source="coalesced"}`: 0,
		`dcgserve_sim_served_total{source="replayed"}`:  0,
		`dcgserve_sims_run_total`:                       1,
		`dcgserve_sims_inflight`:                        0,
		`dcgserve_workers`:                              2,
		`dcgserve_result_cache_hits_total`:              1,
		`dcgserve_result_cache_misses_total`:            1,
	}
	for series, want := range checks {
		got, ok := e.values[series]
		if !ok {
			t.Errorf("missing series %s", series)
			continue
		}
		if got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}

	e.checkHistogram(t, "dcgserve_request_duration_seconds", `{route="/v1/sim"}`)
	e.checkHistogram(t, "dcgserve_worker_wait_seconds", "")
	if e.values[`dcgserve_request_duration_seconds_count{route="/v1/sim"}`] != 2 {
		t.Errorf("request duration count = %v, want 2",
			e.values[`dcgserve_request_duration_seconds_count{route="/v1/sim"}`])
	}
}

// TestWarmStateCounters: each simulated run of a built-in benchmark counts
// one warm-state lookup on /metrics, and a second, uncached request for
// the same benchmark and machine restores the warm-up the first one left
// (a hit, whatever the process ran before).
func TestWarmStateCounters(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	counters := func() (hits, misses float64) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		e := parseExposition(t, resp.Body)
		return e.values["dcg_warm_state_hits_total"], e.values["dcg_warm_state_misses_total"]
	}
	sim := func(scheme string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/v1/sim?benchmark=gzip&insts=1000&warmup=3217&scheme=" + scheme)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d", scheme, resp.StatusCode)
		}
	}
	hits0, misses0 := counters()
	sim("dcg")
	hits1, misses1 := counters()
	if got := hits1 - hits0 + misses1 - misses0; got != 1 {
		t.Errorf("one run counted %v warm-state lookups, want 1", got)
	}
	sim("plb-ext")
	if hits, misses := counters(); hits-hits1 != 1 || misses != misses1 {
		t.Errorf("a second run of the key moved hits by %v and misses by %v, want 1 and 0", hits-hits1, misses-misses1)
	}
}

// TestServedAccountingInvariant is the regression test for the replayed
// path: a request answered by trace replay must count once (as
// "replayed"), not as both a miss and a replay, so the sum of
// dcgserve_sim_served_total over its sources equals the lookups made.
func TestServedAccountingInvariant(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := SimRequest{Benchmark: "gzip", Scheme: "none", Insts: 3000, Warmup: 1000}
	if _, out := postSim(t, ts, req); out.Source != "simulated" {
		t.Fatalf("baseline source = %q", out.Source)
	}
	req.Scheme = "dcg"
	if _, out := postSim(t, ts, req); out.Source != "replayed" {
		t.Fatalf("dcg source = %q, want replayed", out.Source)
	}
	if _, out := postSim(t, ts, req); out.Source != "cache" {
		t.Fatalf("repeat source = %q, want cache", out.Source)
	}
	req.Scheme = "plb-ext"
	if _, out := postSim(t, ts, req); out.Source != "simulated" {
		t.Fatalf("plb source = %q, want simulated", out.Source)
	}
	const lookups = 4

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	e := parseExposition(t, resp.Body)
	served := func(src string) float64 {
		return e.values[`dcgserve_sim_served_total{source="`+src+`"}`]
	}
	var sum float64
	for _, src := range servedSources {
		sum += served(src)
	}
	if sum != lookups {
		t.Errorf("sum of dcgserve_sim_served_total = %v, want %d lookups", sum, lookups)
	}
	// The replayed request counts exactly once, never double-booked as a
	// simulation too.
	if served("cache") != 1 || served("replayed") != 1 || served("simulated") != 2 {
		t.Errorf("served cache=%v replayed=%v simulated=%v, want 1/1/2",
			served("cache"), served("replayed"), served("simulated"))
	}
	if sims := e.values["dcgserve_sims_run_total"]; sims != 2 { // the unthrottled and the PLB capture
		t.Errorf("dcgserve_sims_run_total = %v, want 2", sims)
	}
}

// TestMetricFamilies pins the families a bare server exposes, so a new
// series is a deliberate choice and none restates another.
func TestMetricFamilies(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	e := parseExposition(t, resp.Body)
	want := []string{
		"dcg_build_info",
		"dcg_replay_packed_schemes_total",
		"dcg_trace_decode_reuses_total",
		"dcg_trace_decodes_total",
		"dcg_warm_state_hits_total",
		"dcg_warm_state_misses_total",
		"dcgserve_draining",
		"dcgserve_request_duration_seconds",
		"dcgserve_request_errors_total",
		"dcgserve_result_cache_coalesced_total",
		"dcgserve_result_cache_evictions_total",
		"dcgserve_result_cache_hits_total",
		"dcgserve_result_cache_misses_total",
		"dcgserve_result_cache_resident",
		"dcgserve_sim_duration_seconds",
		"dcgserve_sim_served_total",
		"dcgserve_sims_inflight",
		"dcgserve_sims_run_total",
		"dcgserve_timing_cache_coalesced_total",
		"dcgserve_timing_cache_evictions_total",
		"dcgserve_timing_cache_hits_total",
		"dcgserve_timing_cache_misses_total",
		"dcgserve_timing_cache_resident",
		"dcgserve_uptime_seconds",
		"dcgserve_worker_queue_depth",
		"dcgserve_worker_wait_seconds",
		"dcgserve_workers",
		"go_gc_cycles_total",
		"go_gc_pause_seconds_total",
		"go_goroutines",
		"go_memstats_heap_alloc_bytes",
		"go_sched_gomaxprocs_threads",
	}
	got := make([]string, 0, len(e.types))
	for name := range e.types {
		got = append(got, name)
	}
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("metric families:\n%s\nwant %d:\n%s", strings.Join(got, "\n"), len(want), strings.Join(want, "\n"))
	}
}

// TestRequestIDHeader: every /v1 response carries X-Request-Id; a
// caller-provided ID is preserved.
func TestRequestIDHeader(t *testing.T) {
	s := newFakeServer(Config{}, (&countingRunner{}).run)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/sim?benchmark=gzip&insts=1000")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("response missing X-Request-Id")
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/sim?benchmark=gzip&insts=1000", nil)
	req.Header.Set("X-Request-Id", "caller-chose-this")
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "caller-chose-this" {
		t.Errorf("X-Request-Id = %q, want the caller's ID echoed", got)
	}
}

// TestTraceEndpoint drives /v1/trace end to end: a real simulation with
// telemetry attached, exported as Chrome trace JSON and as CSV.
func TestTraceEndpoint(t *testing.T) {
	s := New(Config{Workers: 2, EnableTrace: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/trace?benchmark=gzip&scheme=dcg&insts=3000&warmup=1000&window=64")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("Content-Type = %q", ct)
	}
	if resp.Header.Get("X-Sim-Cycles") == "" {
		t.Error("missing X-Sim-Cycles header")
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace body is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < 10 {
		t.Fatalf("only %d trace events", len(doc.TraceEvents))
	}
	counters := 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
		case "C":
			counters++
			if ev.Pid != 1 {
				t.Fatalf("counter event pid = %d", ev.Pid)
			}
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
	if counters == 0 {
		t.Fatal("no counter events in trace")
	}

	// CSV form.
	resp, err = ts.Client().Get(ts.URL + "/v1/trace?benchmark=gzip&scheme=dcg&insts=3000&warmup=1000&format=csv")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("csv status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Errorf("csv Content-Type = %q", ct)
	}
	if !strings.HasPrefix(string(body), "window_start,cycles,") {
		t.Errorf("csv header = %q", strings.SplitN(string(body), "\n", 2)[0])
	}

	// Bad format is rejected.
	resp, err = ts.Client().Get(ts.URL + "/v1/trace?benchmark=gzip&format=xml")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("format=xml status = %d, want 400", resp.StatusCode)
	}

	// Trace runs bypass the caches entirely.
	if got := servedTotal(s); got != 0 {
		t.Errorf("trace runs counted as sim lookups: %d", got)
	}
	if sims := s.m.simsRun.Value(); sims != 2 {
		t.Errorf("sims_run = %d, want 2 (one per successful trace)", sims)
	}
}

// TestTraceDisabledByDefault: without EnableTrace the route is absent.
func TestTraceDisabledByDefault(t *testing.T) {
	s := newFakeServer(Config{}, (&countingRunner{}).run)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/trace?benchmark=gzip")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("disabled trace status = %d, want 404", resp.StatusCode)
	}
}

// TestPprofGated: the profiling mux is mounted only on request.
func TestPprofGated(t *testing.T) {
	for _, enabled := range []bool{false, true} {
		s := newFakeServer(Config{EnablePprof: enabled}, (&countingRunner{}).run)
		ts := httptest.NewServer(s.Handler())
		resp, err := ts.Client().Get(ts.URL + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := http.StatusNotFound
		if enabled {
			want = http.StatusOK
		}
		if resp.StatusCode != want {
			t.Errorf("pprof enabled=%v: status %d, want %d", enabled, resp.StatusCode, want)
		}
		ts.Close()
	}
}

// TestErrorsCounted: failed requests increment the error counter and the
// exposition reflects it.
func TestErrorsCounted(t *testing.T) {
	s := newFakeServer(Config{}, (&countingRunner{}).run)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/sim?benchmark=nosuchbench")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	e := parseExposition(t, mresp.Body)
	if e.values["dcgserve_request_errors_total"] != 1 {
		t.Errorf("error counter = %v, want 1", e.values["dcgserve_request_errors_total"])
	}
}
