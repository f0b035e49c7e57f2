package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcg/internal/core"
	"dcg/internal/simrun"
	"dcg/internal/store"
	"dcg/internal/workload"
)

// fakeResult is what the fake seams return; only identity matters.
func fakeResult(k simrun.Key) *core.Result {
	return &core.Result{Benchmark: k.Bench, Scheme: k.Scheme.String(), Cycles: 1234, Committed: k.Insts, IPC: 2.5}
}

// newFakeServer builds a Server on the production executor with fake
// Capture and Evaluate seams: a capture calls run and returns its Result
// with a Timing that holds no trace, and an evaluation returns
// fakeResult. newServer wraps both exactly as it wraps New's, so every
// cache level, the worker pool and the metrics are production's. A
// trace-less Timing cannot be stored, so a test that sets Config.Store
// captures only throttled (PLB) keys, whose timings never reach it.
func newFakeServer(cfg Config, run func(ctx context.Context, k simrun.Key) (*core.Result, error)) *Server {
	cfg = cfg.withDefaults()
	exec := simrun.NewExec(cfg.CacheSize, cfg.TimingCacheSize)
	exec.Capture = func(ctx context.Context, k simrun.Key) (*core.Result, *core.Timing, error) {
		res, err := run(ctx, k)
		if err != nil {
			return nil, nil, err
		}
		return res, &core.Timing{Benchmark: k.Bench}, nil
	}
	exec.Evaluate = func(k simrun.Key, _ *core.Timing) (*core.Result, error) {
		return fakeResult(k), nil
	}
	return newServer(cfg, exec)
}

// countingRunner is a fake capture: it counts executions and can block
// until released.
type countingRunner struct {
	runs    atomic.Int64
	release chan struct{} // nil: return immediately
}

func (c *countingRunner) run(ctx context.Context, k simrun.Key) (*core.Result, error) {
	c.runs.Add(1)
	if c.release != nil {
		select {
		case <-c.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return fakeResult(k), nil
}

func postSim(t *testing.T, ts *httptest.Server, req SimRequest) (*http.Response, SimResponse) {
	t.Helper()
	resp, out, err := trySim(ts, req)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// trySim is postSim for a goroutine other than the test's, which must
// report the error with t.Error.
func trySim(ts *httptest.Server, req SimRequest) (*http.Response, SimResponse, error) {
	body, _ := json.Marshal(req)
	resp, err := ts.Client().Post(ts.URL+"/v1/sim", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, SimResponse{}, err
	}
	defer resp.Body.Close()
	var out SimResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return nil, SimResponse{}, fmt.Errorf("bad response body: %w", err)
		}
	}
	return resp, out, nil
}

// TestConcurrentIdenticalRequestsCoalesce is the acceptance test: 32+
// concurrent identical requests must trigger exactly one underlying
// simulation, with every request getting the full result.
func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	cr := &countingRunner{release: make(chan struct{})}
	s := newFakeServer(Config{Workers: 4}, cr.run)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 40
	var wg sync.WaitGroup
	var ok atomic.Int64
	results := make([]SimResponse, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, out := postSim(t, ts, SimRequest{Benchmark: "gzip", Scheme: "dcg", Insts: 50_000})
			if resp.StatusCode == http.StatusOK {
				ok.Add(1)
				results[i] = out
			}
		}(i)
	}
	// Let the requests pile up on the single in-flight run, then release.
	deadline := time.Now().Add(5 * time.Second)
	for cr.runs.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(cr.release)
	wg.Wait()

	if got := cr.runs.Load(); got != 1 {
		t.Fatalf("%d concurrent identical requests ran %d simulations, want exactly 1", n, got)
	}
	if ok.Load() != n {
		t.Fatalf("only %d/%d requests succeeded", ok.Load(), n)
	}
	for i, r := range results {
		if r.Cycles != 1234 || r.Benchmark != "gzip" {
			t.Fatalf("request %d got wrong result: %+v", i, r)
		}
	}
	if sims := s.m.simsRun.Value(); sims != 1 {
		t.Errorf("metrics report %d sims run, want 1", sims)
	}
	coalesced, hits := s.m.served.With("coalesced").Value(), s.m.served.With("cache").Value()
	if coalesced+hits != n-1 {
		t.Errorf("coalesced %d + hits %d, want %d followers accounted for", coalesced, hits, n-1)
	}
}

// TestCacheHitDoesNotResimulate: a repeat of a completed request must be
// answered from the memo.
func TestCacheHitDoesNotResimulate(t *testing.T) {
	cr := &countingRunner{}
	s := newFakeServer(Config{}, cr.run)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := SimRequest{Benchmark: "mcf", Scheme: "none", Insts: 10_000}
	if resp, out := postSim(t, ts, req); resp.StatusCode != http.StatusOK || out.Source != "simulated" {
		t.Fatalf("first request: status %d source %q", resp.StatusCode, out.Source)
	}
	resp, out := postSim(t, ts, req)
	if resp.StatusCode != http.StatusOK || out.Source != "cache" {
		t.Fatalf("repeat request: status %d source %q, want cache hit", resp.StatusCode, out.Source)
	}
	if cr.runs.Load() != 1 {
		t.Fatalf("repeat request re-simulated: %d runs", cr.runs.Load())
	}
	// A different scheme misses the result memo and replays the captured
	// timing: no second capture.
	if _, out := postSim(t, ts, SimRequest{Benchmark: "mcf", Scheme: "dcg", Insts: 10_000}); out.Source != "replayed" {
		t.Fatalf("different scheme: source %q, want replayed", out.Source)
	}
	if cr.runs.Load() != 1 {
		t.Fatalf("a replayable scheme captured again: %d runs", cr.runs.Load())
	}
}

// TestRequestTimeoutReturns504: a request whose deadline expires while
// the simulation runs gets a gateway-timeout, and the runner sees the
// cancellation.
func TestRequestTimeoutReturns504(t *testing.T) {
	cr := &countingRunner{release: make(chan struct{})} // never released
	defer close(cr.release)
	s := newFakeServer(Config{}, cr.run)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := postSim(t, ts, SimRequest{Benchmark: "gzip", TimeoutMs: 30})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	s := newFakeServer(Config{MaxInsts: 100_000}, (&countingRunner{}).run)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		req  SimRequest
		want string
	}{
		{"unknown benchmark", SimRequest{Benchmark: "quake3"}, "unknown benchmark"},
		{"unknown scheme", SimRequest{Benchmark: "gzip", Scheme: "psychic"}, "unknown scheme"},
		{"insts over limit", SimRequest{Benchmark: "gzip", Insts: 1_000_000}, "exceeds"},
		{"alu out of range", SimRequest{Benchmark: "gzip", Insts: 10_000, IntALUs: 99}, "out of range"},
	}
	for _, tc := range cases {
		body, _ := json.Marshal(tc.req)
		resp, err := ts.Client().Post(ts.URL+"/v1/sim", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		if !strings.Contains(e.Error, tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, e.Error, tc.want)
		}
	}

	// Malformed JSON.
	resp, err := ts.Client().Post(ts.URL+"/v1/sim", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
}

func TestSimGetForm(t *testing.T) {
	cr := &countingRunner{}
	s := newFakeServer(Config{}, cr.run)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/sim?benchmark=gzip&scheme=plb-ext&insts=20000&deep=true&int_alus=4")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out SimResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Scheme != "plb-ext" || out.Insts != 20000 || !out.Deep || out.IntALUs != 4 {
		t.Fatalf("GET form mis-parsed: %+v", out)
	}
}

func TestBatchFanOut(t *testing.T) {
	cr := &countingRunner{}
	s := newFakeServer(Config{Workers: 2}, cr.run)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(BatchRequest{
		Benchmarks: []string{"gzip", "mcf", "nosuch"},
		Schemes:    []string{"dcg", "none"},
		Insts:      10_000,
	})
	resp, err := ts.Client().Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 6 {
		t.Fatalf("results = %d, want 6", len(out.Results))
	}
	// Ordering: benchmark-major, scheme-minor.
	if out.Results[0].Benchmark != "gzip" || out.Results[0].Scheme != "dcg" ||
		out.Results[1].Scheme != "none" || out.Results[2].Benchmark != "mcf" {
		t.Fatalf("batch ordering wrong: %+v", out.Results)
	}
	for i := 0; i < 4; i++ {
		if out.Results[i].Error != "" || out.Results[i].Cycles == 0 {
			t.Errorf("result %d failed: %+v", i, out.Results[i])
		}
	}
	// The bogus benchmark fails per-item without sinking the batch.
	for i := 4; i < 6; i++ {
		if !strings.Contains(out.Results[i].Error, "unknown benchmark") {
			t.Errorf("result %d error = %q, want per-item failure", i, out.Results[i].Error)
		}
	}
	// One capture per benchmark; each benchmark's other scheme replays it,
	// whether it found the timing cached or waited on its capture.
	if got := cr.runs.Load(); got != 2 {
		t.Errorf("%d captures ran, want 2", got)
	}
	simulated, replayed := s.m.served.With("simulated").Value(), s.m.served.With("replayed").Value()
	if simulated != 2 || replayed != 2 || s.m.simDur.With("replay").Count() != 2 {
		t.Errorf("served simulated=%d replayed=%d with %d evaluations, want 2/2/2",
			simulated, replayed, s.m.simDur.With("replay").Count())
	}
}

// TestCoalescedRequestOutlivesLeaderDeadline: a request that joined
// another's capture at the timing level does not fail when that request's
// short deadline ends the capture. The first (gcc dcg, timeout_ms 40)
// answers 504; the second (gcc none, the default timeout) leads a fresh
// capture and answers 200, simulated.
func TestCoalescedRequestOutlivesLeaderDeadline(t *testing.T) {
	joined := make(chan struct{})
	var captures atomic.Int64
	run := func(ctx context.Context, k simrun.Key) (*core.Result, error) {
		if captures.Add(1) == 1 {
			// The first capture outlives its deadline until the second
			// request waits on it.
			<-joined
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return fakeResult(k), nil
	}
	s := newFakeServer(Config{}, run)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type answer struct {
		status int
		source string
	}
	post := func(req SimRequest, out chan<- answer) {
		resp, body, err := trySim(ts, req)
		if err != nil {
			t.Error(err)
			out <- answer{}
			return
		}
		out <- answer{resp.StatusCode, body.Source}
	}
	first, second := make(chan answer, 1), make(chan answer, 1)
	go post(SimRequest{Benchmark: "gcc", Scheme: "dcg", Insts: 300_000, TimeoutMs: 40}, first)
	waitFor(t, "the first capture", func() bool { return captures.Load() == 1 })
	go post(SimRequest{Benchmark: "gcc", Scheme: "none", Insts: 300_000}, second)
	waitFor(t, "the second request to join it", func() bool { return s.exec.TimingStats().Coalesced == 1 })
	close(joined)

	if a := <-first; a.status != http.StatusGatewayTimeout {
		t.Errorf("short-deadline request: status %d, want 504", a.status)
	}
	if a := <-second; a.status != http.StatusOK || a.source != "simulated" {
		t.Errorf("joined request: status %d source %q, want 200 simulated", a.status, a.source)
	}
	if n := captures.Load(); n != 2 {
		t.Errorf("%d captures, want 2", n)
	}
}

// TestOnlyCapturesHoldWorkerSlots: while a blocked capture holds the one
// worker slot, a replay of a captured timing, a repeat of a cached key and
// a key the store holds all answer, with one simulation in flight, and a
// second capture waits for the slot. Every captured key is a PLB
// scheme's: a throttled timing never reaches the store, which could not
// encode the fake seams' trace-less Timing.
func TestOnlyCapturesHoldWorkerSlots(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	stored := simrun.Key{Bench: "mcf", Scheme: core.SchemeNone, Insts: 10_000}
	st.PutResult(context.Background(), stored, fakeResult(stored))
	release := make(chan struct{})
	var captures atomic.Int64
	run := func(ctx context.Context, k simrun.Key) (*core.Result, error) {
		captures.Add(1)
		if k.Bench == "gcc" {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return fakeResult(k), nil
	}
	s := newFakeServer(Config{Workers: 1, Store: st}, run)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, out := postSim(t, ts, SimRequest{Benchmark: "gzip", Scheme: "plb-ext", Insts: 10_000}); out.Source != "simulated" {
		t.Fatalf("seed capture: source %q", out.Source)
	}
	statuses := make(chan int, 2)
	capture := func(bench string) {
		resp, _, err := trySim(ts, SimRequest{Benchmark: bench, Scheme: "plb-orig", Insts: 10_000})
		if err != nil {
			t.Error(err)
			statuses <- 0
			return
		}
		statuses <- resp.StatusCode
	}
	go capture("gcc")
	waitFor(t, "the blocked capture", func() bool { return s.m.activeSims.Value() == 1 })

	for _, tc := range []struct {
		req    SimRequest
		source string
	}{
		{SimRequest{Benchmark: "gzip", Scheme: "dcg+plb", Insts: 10_000, TimeoutMs: 5_000}, "replayed"},
		{SimRequest{Benchmark: "gzip", Scheme: "plb-ext", Insts: 10_000, TimeoutMs: 5_000}, "cache"},
		{SimRequest{Benchmark: "mcf", Scheme: "none", Insts: 10_000, TimeoutMs: 5_000}, "store"},
	} {
		if resp, out := postSim(t, ts, tc.req); resp.StatusCode != http.StatusOK || out.Source != tc.source {
			t.Errorf("%s %s with the slot held: status %d source %q, want 200 %s",
				tc.req.Benchmark, tc.req.Scheme, resp.StatusCode, out.Source, tc.source)
		}
	}
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	inflight := parseExposition(t, mresp.Body).values["dcgserve_sims_inflight"]
	mresp.Body.Close()
	if inflight != 1 {
		t.Errorf("dcgserve_sims_inflight = %v with the slot held, want 1", inflight)
	}

	go capture("art")
	waitFor(t, "the second capture to queue", func() bool { return s.m.queueDepth.Value() == 1 })
	if n := captures.Load(); n != 2 {
		t.Errorf("%d captures ran with the slot held, want 2 (the seed and the blocked one)", n)
	}
	close(release)
	for range 2 {
		if status := <-statuses; status != http.StatusOK {
			t.Errorf("capture: status %d, want 200", status)
		}
	}
	if n := captures.Load(); n != 3 {
		t.Errorf("%d captures, want 3", n)
	}
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRequestBounds: a body over maxRequestBody fails with 400 on every
// JSON endpoint, and so does a batch with more items than there are
// distinct benchmark x scheme pairs, before any item runs. A batch at the
// bound passes it; its unknown benchmarks fail item by item.
func TestRequestBounds(t *testing.T) {
	cr := &countingRunner{}
	s := newFakeServer(Config{Workers: 2, EnableTrace: true}, cr.run)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	huge := `{"benchmark":"` + strings.Repeat("a", 2<<20) + `"}`
	tenDCG := make([]string, 10)
	for i := range tenDCG {
		tenDCG[i] = "dcg"
	}
	maxItems := len(workload.Names()) * len(core.AllSchemes())
	unknown := make([]string, maxItems)
	for i := range unknown {
		unknown[i] = fmt.Sprintf("nosuch%d", i)
	}
	batch := func(req BatchRequest) string {
		b, _ := json.Marshal(req)
		return string(b)
	}
	cases := []struct {
		name, path, body string
		status, items    int
	}{
		{"2 MiB sim body", "/v1/sim", huge, http.StatusBadRequest, 0},
		{"2 MiB batch body", "/v1/batch", huge, http.StatusBadRequest, 0},
		{"2 MiB trace body", "/v1/trace", huge, http.StatusBadRequest, 0},
		{"batch past the pair count", "/v1/batch",
			batch(BatchRequest{Benchmarks: []string{"all"}, Schemes: tenDCG}), http.StatusBadRequest, 0},
		{"batch at the pair count", "/v1/batch",
			batch(BatchRequest{Benchmarks: unknown}), http.StatusOK, maxItems},
	}
	for _, tc := range cases {
		resp, err := ts.Client().Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var out BatchResponse
		json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != tc.status || len(out.Results) != tc.items {
			t.Errorf("%s: status %d with %d results, want %d with %d", tc.name,
				resp.StatusCode, len(out.Results), tc.status, tc.items)
		}
		for i, r := range out.Results {
			if !strings.Contains(r.Error, "unknown benchmark") {
				t.Errorf("%s: result %d error = %q, want a per-item failure", tc.name, i, r.Error)
			}
		}
	}
	if got, sims := cr.runs.Load(), s.m.simsRun.Value(); got != 0 || sims != 0 {
		t.Errorf("%d runs and sims_run %d, want none", got, sims)
	}
}

// TestBatchSuiteSelectors checks "int"/"fp"/empty expansion.
func TestBatchSuiteSelectors(t *testing.T) {
	names, err := expandBenchmarks(nil)
	if err != nil || len(names) == 0 {
		t.Fatalf("empty selector: %v %v", names, err)
	}
	intNames, _ := expandBenchmarks([]string{"int"})
	fpNames, _ := expandBenchmarks([]string{"fp"})
	if len(intNames)+len(fpNames) != len(names) {
		t.Errorf("int (%d) + fp (%d) != all (%d)", len(intNames), len(fpNames), len(names))
	}
	explicit, _ := expandBenchmarks([]string{"gzip", "mcf"})
	if len(explicit) != 2 {
		t.Errorf("explicit list mangled: %v", explicit)
	}
}

func TestHealthzAndDrain(t *testing.T) {
	s := newFakeServer(Config{}, (&countingRunner{}).run)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy server: status %d", resp.StatusCode)
	}

	s.Drain()
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server: status %d, want 503", resp.StatusCode)
	}

	// Draining rotates the instance out but keeps serving requests.
	if resp, out := postSim(t, ts, SimRequest{Benchmark: "gzip", Insts: 1000}); resp.StatusCode != http.StatusOK || out.Cycles == 0 {
		t.Fatalf("draining server refused work: status %d", resp.StatusCode)
	}
}

func TestBenchmarksEndpoint(t *testing.T) {
	s := newFakeServer(Config{}, (&countingRunner{}).run)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/benchmarks")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Benchmarks []string `json:"benchmarks"`
		Schemes    []string `json:"schemes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Benchmarks) == 0 || len(out.Schemes) != len(core.AllSchemes()) {
		t.Fatalf("vocabulary wrong: %d benchmarks, %d schemes", len(out.Benchmarks), len(out.Schemes))
	}
}

// TestSchemesEndpoint: the discovery endpoint mirrors the core scheme
// registry — every registered scheme appears with its replay capability
// and channel requirements, so clients can validate sweep specs without
// hardcoding the vocabulary.
func TestSchemesEndpoint(t *testing.T) {
	s := newFakeServer(Config{}, (&countingRunner{}).run)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/schemes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Schemes []SchemeInfo `json:"schemes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Schemes) != len(core.AllSchemes()) {
		t.Fatalf("endpoint lists %d schemes, registry has %d", len(out.Schemes), len(core.AllSchemes()))
	}
	byName := map[string]SchemeInfo{}
	for _, sch := range out.Schemes {
		if sch.Name == "" || sch.Summary == "" || sch.Replay == "" {
			t.Errorf("incomplete scheme entry: %+v", sch)
		}
		byName[sch.Name] = sch
	}
	ddcg, ok := byName["ddcg"]
	if !ok {
		t.Fatal("endpoint omits ddcg")
	}
	if ddcg.Replay != "packed" || !ddcg.TimingNeutral ||
		len(ddcg.Channels) != 1 || ddcg.Channels[0] != "latchvalue" {
		t.Errorf("ddcg entry wrong: %+v", ddcg)
	}
	if plb := byName["plb-ext"]; plb.Replay != "packed" || plb.TimingNeutral {
		t.Errorf("plb-ext entry wrong: %+v", plb)
	}
	if dcg := byName["dcg"]; dcg.Replay != "packed" || len(dcg.Channels) != 0 {
		t.Errorf("dcg entry wrong: %+v", dcg)
	}

	// POST is not part of the contract.
	post, err := ts.Client().Post(ts.URL+"/v1/schemes", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/schemes: status %d, want 405", post.StatusCode)
	}
}

// TestProductionServerRepliesFromTimingCache drives the real two-level
// executor end to end: after the baseline scheme simulates (and captures
// its timing trace), other timing-neutral schemes for the same workload
// are answered by replay, while PLB takes a capture of its own, under its
// throttle.
func TestProductionServerRepliesFromTimingCache(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := SimRequest{Benchmark: "gzip", Scheme: "none", Insts: 10_000, Warmup: 5_000}
	if resp, out := postSim(t, ts, req); resp.StatusCode != http.StatusOK || out.Source != "simulated" {
		t.Fatalf("baseline: status %d source %q", resp.StatusCode, out.Source)
	}
	for _, scheme := range []string{"dcg", "oracle"} {
		r := req
		r.Scheme = scheme
		resp, out := postSim(t, ts, r)
		if resp.StatusCode != http.StatusOK || out.Source != "replayed" {
			t.Fatalf("%s: status %d source %q, want replayed", scheme, resp.StatusCode, out.Source)
		}
		if out.Saving <= 0 {
			t.Errorf("%s: replayed result has saving %v", scheme, out.Saving)
		}
	}
	r := req
	r.Scheme = "plb-ext"
	if resp, out := postSim(t, ts, r); resp.StatusCode != http.StatusOK || out.Source != "simulated" {
		t.Fatalf("plb-ext: status %d source %q, want simulated (PLB perturbs timing)", resp.StatusCode, out.Source)
	}

	captures := s.m.simDur.With("capture").Count()
	replays := s.m.served.With("replayed").Value()
	cached := s.exec.TimingStats().Resident
	if captures != 2 || replays != 2 || cached != 2 {
		t.Errorf("timing counters wrong: captures=%d replays=%d cached=%d, want 2/2/2",
			captures, replays, cached)
	}
	if sims := s.m.simsRun.Value(); sims != 2 { // the unthrottled and the PLB capture
		t.Errorf("sims_run = %d, want 2", sims)
	}
}

// TestMetricz: /metrics is the one counter surface; the JSON counter
// views that restated it (/metricz, its /stats alias and the expvar
// mirror on /debug/vars) are gone.
func TestMetricz(t *testing.T) {
	s := newFakeServer(Config{Workers: 3}, (&countingRunner{}).run)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/metricz", "/stats", "/debug/vars"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestWorkerPoolBoundsConcurrency: with W workers and many distinct keys,
// at most W simulations execute at once.
func TestWorkerPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	var active, peak atomic.Int64
	release := make(chan struct{})
	run := func(ctx context.Context, k simrun.Key) (*core.Result, error) {
		n := active.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		defer active.Add(-1)
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return fakeResult(k), nil
	}
	s := newFakeServer(Config{Workers: workers}, run)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 12
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct keys so nothing coalesces.
			postSim(t, ts, SimRequest{Benchmark: "gzip", Insts: uint64(1000 + i)})
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for active.Load() < workers && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent simulations, pool bound is %d", p, workers)
	}
}

// TestRealSimulationSmoke runs the production runner end to end through
// the HTTP layer on a tiny instruction budget.
func TestRealSimulationSmoke(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, out := postSim(t, ts, SimRequest{Benchmark: "gzip", Scheme: "dcg", Insts: 3000, Warmup: 1000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Committed == 0 || out.Cycles == 0 || out.IPC <= 0 {
		t.Fatalf("degenerate result: %+v", out)
	}
	if out.Saving <= 0 || out.Saving >= 1 {
		t.Errorf("DCG saving %.3f out of (0,1)", out.Saving)
	}
	if out.LeadViolations != 0 {
		t.Errorf("lead violations = %d", out.LeadViolations)
	}
	if out.Source != "simulated" {
		t.Errorf("source = %q", out.Source)
	}
}

func TestTimeoutResolution(t *testing.T) {
	s := newFakeServer(Config{DefaultTimeout: time.Second}, (&countingRunner{}).run)
	if d := s.timeout(&SimRequest{}); d != time.Second {
		t.Errorf("default timeout = %v", d)
	}
	if d := s.timeout(&SimRequest{TimeoutMs: 100}); d != 100*time.Millisecond {
		t.Errorf("short override = %v", d)
	}
	// A request cannot extend the service bound.
	if d := s.timeout(&SimRequest{TimeoutMs: 10_000}); d != time.Second {
		t.Errorf("long override = %v, want clamped to 1s", d)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := newFakeServer(Config{}, (&countingRunner{}).run)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sim", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /v1/sim: status %d, want 405", resp.StatusCode)
	}

	resp, err = ts.Client().Get(ts.URL + "/v1/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/batch: status %d, want 405", resp.StatusCode)
	}
}
