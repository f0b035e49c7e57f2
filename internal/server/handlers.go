package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"dcg/internal/core"
	"dcg/internal/obs"
	"dcg/internal/simrun"
	"dcg/internal/workload"
)

// SimRequest is the wire form of one simulation request.
type SimRequest struct {
	// Benchmark is a built-in benchmark name (see /v1/benchmarks).
	Benchmark string `json:"benchmark"`

	// Scheme is a registered gating-scheme name (GET /v1/schemes
	// enumerates them; default "dcg").
	Scheme string `json:"scheme,omitempty"`

	// Insts is the measured dynamic instruction count (default: the
	// service's default_insts, capped at max_insts).
	Insts uint64 `json:"insts,omitempty"`

	// Deep selects the 20-stage pipeline of section 5.6.
	Deep bool `json:"deep,omitempty"`

	// IntALUs overrides the integer-ALU count when > 0 (section 4.4).
	IntALUs int `json:"int_alus,omitempty"`

	// Warmup is the functional warm-up length (0 = simulator default).
	Warmup uint64 `json:"warmup,omitempty"`

	// TimeoutMs bounds this request's simulation work; it can only
	// shorten the service's default timeout.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// key canonicalises the request (after defaults) into a simulation key.
func (s *Server) key(req *SimRequest) (simrun.Key, error) {
	scheme := req.Scheme
	if scheme == "" {
		scheme = "dcg"
	}
	kind, err := core.ParseScheme(scheme)
	if err != nil {
		return simrun.Key{}, err
	}
	insts := req.Insts
	if insts == 0 {
		insts = s.cfg.DefaultInsts
	}
	k := simrun.Key{
		Bench:  req.Benchmark,
		Scheme: kind,
		Deep:   req.Deep,
		IntALU: req.IntALUs,
		Insts:  insts,
		Warmup: req.Warmup,
	}
	return k, s.validate(k)
}

// timeout resolves the effective deadline for a request.
func (s *Server) timeout(req *SimRequest) time.Duration {
	d := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		if t := time.Duration(req.TimeoutMs) * time.Millisecond; t < d {
			d = t
		}
	}
	return d
}

// SimResponse is the wire form of one simulation result.
type SimResponse struct {
	Benchmark string `json:"benchmark"`
	Scheme    string `json:"scheme"`
	Insts     uint64 `json:"insts"`
	Deep      bool   `json:"deep,omitempty"`
	IntALUs   int    `json:"int_alus,omitempty"`

	Cycles    uint64  `json:"cycles"`
	Committed uint64  `json:"committed"`
	IPC       float64 `json:"ipc"`

	AvgPower      float64 `json:"avg_power"`
	BaselinePower float64 `json:"baseline_power"`
	Saving        float64 `json:"saving"`

	Util struct {
		IntUnits  float64 `json:"int_units"`
		FPUnits   float64 `json:"fp_units"`
		Latches   float64 `json:"latches"`
		DPorts    float64 `json:"d_ports"`
		ResultBus float64 `json:"result_bus"`
	} `json:"utilization"`

	BranchAccuracy float64 `json:"branch_accuracy"`
	DL1MissRate    float64 `json:"dl1_miss_rate"`
	L2MissRate     float64 `json:"l2_miss_rate"`

	LeadViolations uint64 `json:"lead_violations"`
	GateViolations uint64 `json:"gate_violations"`

	// Source is how the request was served: "simulated" (this request
	// ran the timing capture), "replayed" (evaluated by replaying a
	// cached timing trace), "coalesced" (shared an identical in-flight
	// run), "cache" (memoised result) or "store" (loaded from the
	// persistent artifact store).
	Source string `json:"source"`

	// ElapsedMs is the wall time this request spent being served.
	ElapsedMs float64 `json:"elapsed_ms"`

	// Error is set on batch items that failed; successful responses
	// leave it empty.
	Error string `json:"error,omitempty"`
}

// fillResult copies a core.Result into the response.
func (r *SimResponse) fillResult(res *core.Result) {
	r.Cycles = res.Cycles
	r.Committed = res.Committed
	r.IPC = res.IPC
	r.AvgPower = res.AvgPower
	r.BaselinePower = res.BaselinePower
	r.Saving = res.Saving
	r.Util.IntUnits = res.Util.IntUnits
	r.Util.FPUnits = res.Util.FPUnits
	r.Util.Latches = res.Util.Latches
	r.Util.DPorts = res.Util.DPorts
	r.Util.ResultBus = res.Util.ResultBus
	r.BranchAccuracy = res.BranchAccuracy
	r.DL1MissRate = res.DL1MissRate
	r.L2MissRate = res.L2MissRate
	r.LeadViolations = res.LeadViolations
	r.GateViolations = res.GateViolations
}

// BatchRequest fans one configuration out over benchmark x scheme.
type BatchRequest struct {
	// Benchmarks is an explicit list, or one of the suite selectors
	// "all", "int", "fp" as a single element. Empty means "all".
	Benchmarks []string `json:"benchmarks,omitempty"`

	// Schemes lists gating schemes to run (default ["dcg"]).
	Schemes []string `json:"schemes,omitempty"`

	Insts     uint64 `json:"insts,omitempty"`
	Deep      bool   `json:"deep,omitempty"`
	IntALUs   int    `json:"int_alus,omitempty"`
	Warmup    uint64 `json:"warmup,omitempty"`
	TimeoutMs int64  `json:"timeout_ms,omitempty"`
}

// BatchResponse carries one entry per benchmark x scheme pair, in request
// order; failed entries carry Error and zero metrics.
type BatchResponse struct {
	Results []SimResponse `json:"results"`
}

// routes wires the endpoint table. The /v1 handlers are wrapped by the
// instrumented middleware (request ID, structured log line, route counter
// and latency histogram); the operational endpoints are left bare so
// scrapes and health probes do not pollute the request metrics.
func (s *Server) routes() {
	s.mux.HandleFunc("/v1/sim", s.instrumented("/v1/sim", s.handleSim))
	s.mux.HandleFunc("/v1/batch", s.instrumented("/v1/batch", s.handleBatch))
	s.mux.HandleFunc("/v1/benchmarks", s.instrumented("/v1/benchmarks", s.handleBenchmarks))
	s.mux.HandleFunc("/v1/schemes", s.instrumented("/v1/schemes", s.handleSchemes))
	if s.cfg.EnableTrace {
		s.mux.HandleFunc("/v1/trace", s.instrumented("/v1/trace", s.handleTrace))
	}
	if s.sweeps != nil {
		s.mux.HandleFunc("POST /v1/sweeps", s.instrumented("/v1/sweeps", s.handleSweepSubmit))
		s.mux.HandleFunc("GET /v1/sweeps", s.instrumented("/v1/sweeps", s.handleSweepList))
		s.mux.HandleFunc("GET /v1/sweeps/{id}", s.instrumented("/v1/sweeps/{id}", s.handleSweepStatus))
		s.mux.HandleFunc("GET /v1/sweeps/{id}/results", s.instrumented("/v1/sweeps/{id}/results", s.handleSweepResults))
		s.mux.HandleFunc("GET /v1/sweeps/{id}/progress", s.instrumented("/v1/sweeps/{id}/progress", s.handleSweepProgress))
		s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.instrumented("/v1/sweeps/{id}", s.handleSweepCancel))
	}
	if s.tracer != nil {
		s.mux.HandleFunc("GET /v1/traces", s.instrumented("/v1/traces", s.handleTraces))
	}
	// Distributed mode: the lease protocol and the artifact store are
	// mounted bare (no per-request spans or route metrics) — worker
	// polling is high-frequency operational traffic, and lease spans are
	// already rooted in each job's trace by the coordinator.
	if s.cfg.Cluster != nil {
		s.mux.Handle("/cluster/v1/", http.StripPrefix("/cluster/v1", s.cfg.Cluster.Handler()))
		if s.cfg.Store != nil {
			s.mux.Handle("/store/v1/", http.StripPrefix("/store/v1", s.cfg.Store.Handler()))
		}
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.Handle("/metrics", s.m.reg.Handler())
	if s.cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// statusWriter captures the response status for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// spanlessRoutes are trace-introspection endpoints: they read the span
// ring, so giving them root spans of their own would churn the very data
// they serve. They keep their request metrics and access log.
var spanlessRoutes = map[string]bool{
	"/v1/traces":               true,
	"/v1/sweeps/{id}/progress": true,
}

// instrumented wraps one route's handler with request identity and the
// HTTP-layer metrics. Each request gets a process-unique ID (or keeps the
// caller's X-Request-Id), echoed back in the response header and carried
// through the context into simrun and the cycle core, so one request's
// capture/replay/cache decisions can be traced end to end in the logs.
// With a tracer attached, each request also gets a root span — continuing
// an inbound W3C traceparent when one is present — whose trace ID is
// echoed in X-Trace-Id and stamped on every log line.
func (s *Server) instrumented(route string, h http.HandlerFunc) http.HandlerFunc {
	dur := s.m.reqDur.With(route)
	traced := s.tracer != nil && !spanlessRoutes[route]
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		lg := s.log.With("req", id)
		ctx := r.Context()
		var sp *obs.Span
		if traced {
			ctx, sp = s.tracer.StartRoot(obs.Extract(ctx, r.Header), "http "+route)
			sp.SetAttr("method", r.Method)
			sp.SetAttr("route", route)
			w.Header().Set("X-Trace-Id", sp.TraceID.String())
			lg = lg.With("trace", sp.TraceID.String())
		}
		ctx = obs.WithLogger(obs.WithRequestID(ctx, id), lg)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r.WithContext(ctx))
		elapsed := time.Since(start)
		dur.Observe(elapsed.Seconds())
		if sp != nil {
			sp.SetAttrInt("status", int64(sw.status))
			sp.Finish()
		}
		if lg.Enabled(ctx, slog.LevelInfo) {
			lg.LogAttrs(ctx, slog.LevelInfo, "http: request",
				slog.String("method", r.Method),
				slog.String("route", route),
				slog.Int("status", sw.status),
				slog.Float64("elapsed_ms", float64(elapsed.Microseconds())/1000))
		}
	}
}

// handleSim serves one simulation. POST takes a SimRequest body; GET
// takes the same fields as query parameters (benchmark, scheme, insts,
// deep, int_alus, warmup, timeout_ms) for curl-ability.
func (s *Server) handleSim(w http.ResponseWriter, r *http.Request) {
	var req SimRequest
	switch r.Method {
	case http.MethodPost:
		if err := decodeBody(w, r, &req); err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
	case http.MethodGet:
		if err := simRequestFromQuery(r, &req); err != nil {
			s.fail(w, http.StatusBadRequest, err)
			return
		}
	default:
		s.fail(w, http.StatusMethodNotAllowed, errors.New("use GET or POST"))
		return
	}

	key, err := s.key(&req)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(&req))
	defer cancel()

	start := time.Now()
	res, outcome, err := s.simulate(ctx, key)
	if err != nil {
		s.fail(w, errStatus(err), err)
		return
	}
	resp := responseFor(key, res, outcome, time.Since(start))
	s.writeJSON(w, http.StatusOK, resp)
}

// handleBatch fans a suite out across the worker pool and returns every
// result. Item failures are reported per entry, not as a whole-batch
// error, so one broken configuration does not discard completed work.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return
	}
	var req BatchRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	benches, err := expandBenchmarks(req.Benchmarks)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	schemes := req.Schemes
	if len(schemes) == 0 {
		schemes = []string{"dcg"}
	}
	// Each item runs on its own goroutine, so the count is bounded before
	// any starts: by the batch of every distinct valid pair.
	if n, limit := len(benches)*len(schemes), len(s.benchNames)*len(core.AllSchemes()); n > limit {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("batch of %d items exceeds the %d benchmark x scheme pairs", n, limit))
		return
	}

	simReq := SimRequest{
		Insts: req.Insts, Deep: req.Deep, IntALUs: req.IntALUs,
		Warmup: req.Warmup, TimeoutMs: req.TimeoutMs,
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(&simReq))
	defer cancel()

	out := make([]SimResponse, len(benches)*len(schemes))
	var wg sync.WaitGroup
	for bi, bench := range benches {
		for si, scheme := range schemes {
			wg.Add(1)
			go func(slot int, bench, scheme string) {
				defer wg.Done()
				itemReq := simReq
				itemReq.Benchmark = bench
				itemReq.Scheme = scheme
				start := time.Now()
				key, err := s.key(&itemReq)
				if err != nil {
					out[slot] = SimResponse{Benchmark: bench, Scheme: scheme, Error: err.Error()}
					return
				}
				res, outcome, err := s.simulate(ctx, key)
				if err != nil {
					out[slot] = SimResponse{
						Benchmark: bench, Scheme: key.Scheme.String(),
						Insts: key.Insts, Deep: key.Deep, IntALUs: key.IntALU,
						Error: err.Error(),
					}
					return
				}
				out[slot] = *responseFor(key, res, outcome, time.Since(start))
			}(bi*len(schemes)+si, bench, scheme)
		}
	}
	wg.Wait()
	s.writeJSON(w, http.StatusOK, BatchResponse{Results: out})
}

// handleBenchmarks lists the workload and scheme vocabulary.
func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	var schemes []string
	for _, k := range core.AllSchemes() {
		schemes = append(schemes, k.String())
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"benchmarks": s.benchNames,
		"int":        workload.IntNames(),
		"fp":         workload.FPNames(),
		"schemes":    schemes,
	})
}

// SchemeInfo is the wire form of one /v1/schemes entry, derived from the
// core scheme registry.
type SchemeInfo struct {
	// Name is the scheme's registered name, accepted by every scheme
	// field in the API.
	Name string `json:"name"`

	// Summary is the one-line description from the registry.
	Summary string `json:"summary"`

	// Replay is how results are produced: "packed" for every scheme, an
	// evaluation on the bit-packed replay kernel of the scheme's capture.
	Replay string `json:"replay"`

	// TimingNeutral reports whether the scheme has no capture throttle,
	// and so shares unthrottled captures with every other neutral scheme.
	// A scheme that is not neutral (the PLB family) shares a capture only
	// with the schemes its throttle drives.
	TimingNeutral bool `json:"timing_neutral"`

	// Channels lists the extra trace channels the scheme's captures
	// carry beyond the usage channel (e.g. "latchvalue").
	Channels []string `json:"channels,omitempty"`
}

// handleSchemes enumerates the gating-scheme registry: names, summaries,
// replay capabilities, and required trace channels. Sweep specs and batch
// requests can be validated client-side against this listing.
func (s *Server) handleSchemes(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	infos := core.Schemes()
	out := make([]SchemeInfo, len(infos))
	for i, info := range infos {
		out[i] = SchemeInfo{
			Name:          string(info.Kind),
			Summary:       info.Summary,
			Replay:        info.Replay.String(),
			TimingNeutral: info.Timing == "",
			Channels:      info.Channels,
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"schemes": out})
}

// handleHealthz reports liveness; a draining server answers 503 so load
// balancers stop routing to it while in-flight work finishes. The body
// is JSON carrying the binary's build identity, so a fleet's running
// versions are checkable from the health probe alone.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	version, revision := obs.BuildInfo()
	body := map[string]any{
		"status":     "ok",
		"version":    version,
		"revision":   revision,
		"uptime_sec": time.Since(s.startedAt).Seconds(),
	}
	status := http.StatusOK
	if s.Draining() {
		body["status"] = "draining"
		status = http.StatusServiceUnavailable
	}
	s.writeJSON(w, status, body)
}

// TraceRequest is the wire form of one /v1/trace request: a simulation
// request plus the telemetry parameters.
type TraceRequest struct {
	SimRequest

	// Format selects the export: "json" (Chrome trace-event JSON, the
	// default) or "csv" (one row per sample window).
	Format string `json:"format,omitempty"`

	// Window is the sample width in cycles (default obs.DefaultTraceWindow).
	Window uint64 `json:"window,omitempty"`
}

// handleTrace runs one fully instrumented simulation and streams its
// pipeline telemetry. Telemetry requires a live pass, so this endpoint
// bypasses both cache levels and always occupies a worker slot; it counts
// toward dcgserve_sims_run_total but not dcgserve_sim_served_total (it is
// not served from the executor, so it must not skew the served-source
// accounting).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	var req TraceRequest
	switch r.Method {
	case http.MethodPost:
		if err := decodeBody(w, r, &req); err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
	case http.MethodGet:
		if err := simRequestFromQuery(r, &req.SimRequest); err != nil {
			s.fail(w, http.StatusBadRequest, err)
			return
		}
		q := r.URL.Query()
		req.Format = q.Get("format")
		if v := q.Get("window"); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				s.fail(w, http.StatusBadRequest, fmt.Errorf("bad window %q", v))
				return
			}
			req.Window = n
		}
	default:
		s.fail(w, http.StatusMethodNotAllowed, errors.New("use GET or POST"))
		return
	}
	switch req.Format {
	case "", "json", "csv":
	default:
		s.fail(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (want json or csv)", req.Format))
		return
	}

	key, err := s.key(&req.SimRequest)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(&req.SimRequest))
	defer cancel()

	release, err := s.acquireWorker(ctx)
	if err != nil {
		s.fail(w, errStatus(err), err)
		return
	}
	defer release()
	s.m.activeSims.Add(1)
	defer s.m.activeSims.Add(-1)
	s.m.simsRun.Inc()

	rec := obs.NewPipelineRecorder(key.Machine(), req.Window, key.Bench+"/"+key.Scheme.String())
	start := time.Now()
	res, err := simrun.RunTelemetry(ctx, key, rec)
	s.m.simDur.With("trace").Observe(time.Since(start).Seconds())
	if err != nil {
		s.fail(w, errStatus(err), err)
		return
	}
	w.Header().Set("X-Sim-Cycles", strconv.FormatUint(res.Cycles, 10))
	if req.Format == "csv" {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		_ = rec.WriteCSV(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = rec.WriteChromeTrace(w)
}

// responseFor assembles the success response body.
func responseFor(k simrun.Key, res *core.Result, outcome simrun.Outcome, elapsed time.Duration) *SimResponse {
	resp := &SimResponse{
		Benchmark: k.Bench,
		Scheme:    k.Scheme.String(),
		Insts:     k.Insts,
		Deep:      k.Deep,
		IntALUs:   k.IntALU,
		Source:    outcome.String(),
		ElapsedMs: float64(elapsed.Microseconds()) / 1000,
	}
	resp.fillResult(res)
	return resp
}

// simRequestFromQuery parses the GET form of /v1/sim.
func simRequestFromQuery(r *http.Request, req *SimRequest) error {
	q := r.URL.Query()
	req.Benchmark = q.Get("benchmark")
	if req.Benchmark == "" {
		req.Benchmark = q.Get("bench")
	}
	req.Scheme = q.Get("scheme")
	var err error
	parseU64 := func(name string, dst *uint64) {
		if v := q.Get(name); v != "" && err == nil {
			*dst, err = strconv.ParseUint(v, 10, 64)
			if err != nil {
				err = fmt.Errorf("bad %s %q", name, v)
			}
		}
	}
	parseU64("insts", &req.Insts)
	parseU64("warmup", &req.Warmup)
	if v := q.Get("int_alus"); v != "" && err == nil {
		req.IntALUs, err = strconv.Atoi(v)
		if err != nil {
			err = fmt.Errorf("bad int_alus %q", v)
		}
	}
	if v := q.Get("timeout_ms"); v != "" && err == nil {
		req.TimeoutMs, err = strconv.ParseInt(v, 10, 64)
		if err != nil {
			err = fmt.Errorf("bad timeout_ms %q", v)
		}
	}
	if v := q.Get("deep"); v != "" && err == nil {
		req.Deep, err = strconv.ParseBool(v)
		if err != nil {
			err = fmt.Errorf("bad deep %q", v)
		}
	}
	return err
}

// expandBenchmarks resolves suite selectors to name lists.
func expandBenchmarks(names []string) ([]string, error) {
	if len(names) == 0 {
		return workload.Names(), nil
	}
	if len(names) == 1 {
		switch names[0] {
		case "all":
			return workload.Names(), nil
		case "int":
			return workload.IntNames(), nil
		case "fp":
			return workload.FPNames(), nil
		}
	}
	return names, nil
}

// maxRequestBody caps the bytes a request body may carry. Simulation,
// batch and trace requests are a few hundred bytes; sweep specs share the
// cap, as the cluster protocol does its own.
const maxRequestBody = 1 << 20

// decodeBody decodes r's JSON body into v, reading at most maxRequestBody
// bytes of it.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(v)
}

// errStatus maps simulation errors to HTTP statuses.
func errStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is for logs only.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// fail writes a JSON error body.
func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	s.m.errors.Inc()
	s.writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeJSON writes a JSON response with the given status.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
