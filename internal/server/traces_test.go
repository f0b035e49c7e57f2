package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"dcg/internal/obs"
	"dcg/internal/store"
)

// traceSpanView mirrors the wire form of one exported span.
type traceSpanView struct {
	TraceID  string     `json:"trace_id"`
	SpanID   string     `json:"span_id"`
	ParentID string     `json:"parent_id"`
	Name     string     `json:"name"`
	Attrs    []obs.Attr `json:"attrs"`
	Err      string     `json:"error"`
}

func getTrace(t *testing.T, ts *httptest.Server, traceID string) []traceSpanView {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/traces?trace_id=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/traces: HTTP %d", resp.StatusCode)
	}
	var body struct {
		Count int             `json:"count"`
		Spans []traceSpanView `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("bad /v1/traces body: %v", err)
	}
	if body.Count != len(body.Spans) {
		t.Errorf("count %d != len(spans) %d", body.Count, len(body.Spans))
	}
	return body.Spans
}

// assertConnectedTree checks the span set forms one tree: exactly one
// root, every other span's parent resident in the set.
func assertConnectedTree(t *testing.T, spans []traceSpanView) (root traceSpanView) {
	t.Helper()
	ids := make(map[string]bool, len(spans))
	for _, sp := range spans {
		ids[sp.SpanID] = true
	}
	roots := 0
	for _, sp := range spans {
		if sp.ParentID == "" {
			roots++
			root = sp
			continue
		}
		if !ids[sp.ParentID] {
			t.Errorf("span %s (%s) has dangling parent %s", sp.Name, sp.SpanID, sp.ParentID)
		}
	}
	if roots != 1 {
		t.Fatalf("trace has %d roots, want 1: %+v", roots, spans)
	}
	return root
}

func spanNames(spans []traceSpanView) map[string]int {
	names := make(map[string]int)
	for _, sp := range spans {
		names[sp.Name]++
	}
	return names
}

// TestTracedSimRequestSpanTree is the acceptance test for request
// tracing: a single curl'd /v1/sim answered by trace replay yields one
// connected span tree covering the cache lookup, the store consults, the
// replay, and the trace decode — retrievable from /v1/traces by the
// X-Trace-Id the response carried. A scalar-route replay, which never
// reads the decoded view, carries no decode span.
func TestTracedSimRequestSpanTree(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Workers: 2,
		Tracer:  obs.NewTracer(512),
		Store:   st,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// First request captures the workload's timing and evaluates the
	// scheme on it.
	resp1, err := ts.Client().Get(ts.URL + "/v1/sim?benchmark=gzip&scheme=dcg&insts=2000")
	if err != nil {
		t.Fatal(err)
	}
	resp1.Body.Close()
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("capture request: HTTP %d", resp1.StatusCode)
	}
	tid1 := resp1.Header.Get("X-Trace-Id")
	if tid1 == "" {
		t.Fatal("no X-Trace-Id on a traced request")
	}
	spans1 := getTrace(t, ts, tid1)
	root1 := assertConnectedTree(t, spans1)
	if root1.Name != "http /v1/sim" {
		t.Errorf("root span = %q, want %q", root1.Name, "http /v1/sim")
	}
	names1 := spanNames(spans1)
	for _, want := range []string{"simrun.lookup", "sim.capture", "store.get_result", "store.put_timing", "store.put_result"} {
		if names1[want] == 0 {
			t.Errorf("capture trace missing span %q; have %v", want, names1)
		}
	}

	// Second request, timing-neutral sibling scheme: served by replaying
	// the cached trace, under a fresh trace ID.
	resp2, err := ts.Client().Get(ts.URL + "/v1/sim?benchmark=gzip&scheme=none&insts=2000")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	tid2 := resp2.Header.Get("X-Trace-Id")
	if tid2 == "" || tid2 == tid1 {
		t.Fatalf("replay request trace id %q (capture was %q)", tid2, tid1)
	}
	spans2 := getTrace(t, ts, tid2)
	assertConnectedTree(t, spans2)
	if len(spans2) < 5 {
		t.Errorf("replay trace has %d spans, want >= 5 (root + 4 stages)", len(spans2))
	}
	names2 := spanNames(spans2)
	for _, want := range []string{"simrun.lookup", "store.get_result", "sim.replay", "trace.decode", "store.put_result"} {
		if names2[want] == 0 {
			t.Errorf("replay trace missing span %q; have %v", want, names2)
		}
	}
	for _, sp := range spans2 {
		if sp.Name != "simrun.lookup" {
			continue
		}
		if !hasAttr(sp.Attrs, "outcome", "replayed") {
			t.Errorf("lookup outcome attrs = %v, want outcome=replayed", sp.Attrs)
		}
	}

	// A value-dependent replay runs on the packed kernel too: ddcg
	// captures the latchvalue timing, building its packed view as it
	// records, and dcg+ddcg's replay takes that view under its own
	// trace.decode span without a pass over the trace's bytes.
	get := func(query string) *http.Response {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/v1/sim?" + query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d", query, resp.StatusCode)
		}
		return resp
	}
	decodes := func() float64 {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return parseExposition(t, resp.Body).values["dcg_trace_decodes_total"]
	}
	get("benchmark=gzip&scheme=ddcg&insts=2000")
	decodes0 := decodes()
	tid3 := get("benchmark=gzip&scheme=" + url.QueryEscape("dcg+ddcg") + "&insts=2000").Header.Get("X-Trace-Id")
	spans3 := getTrace(t, ts, tid3)
	assertConnectedTree(t, spans3)
	names3 := spanNames(spans3)
	if names3["sim.replay"] == 0 || names3["trace.decode"] != 1 {
		t.Errorf("value-dependent replay spans %v, want sim.replay and one trace.decode", names3)
	}
	if got := decodes() - decodes0; got != 0 {
		t.Errorf("value-dependent replay moved dcg_trace_decodes_total by %v, want 0", got)
	}
}

func hasAttr(attrs []obs.Attr, key, value string) bool {
	for _, a := range attrs {
		if a.Key == key && a.Value == value {
			return true
		}
	}
	return false
}

// TestTraceIDInLogs: the trace ID echoed in X-Trace-Id is stamped on the
// request's structured log lines, so logs and spans cross-reference.
func TestTraceIDInLogs(t *testing.T) {
	var buf bytes.Buffer
	s := newFakeServer(Config{
		Tracer: obs.NewTracer(64),
		Logger: slog.New(slog.NewJSONHandler(&buf, nil)),
	}, (&countingRunner{}).run)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := postSim(t, ts, SimRequest{Benchmark: "gzip", Scheme: "dcg"})
	tid := resp.Header.Get("X-Trace-Id")
	if tid == "" {
		t.Fatal("no X-Trace-Id header")
	}
	if !strings.Contains(buf.String(), `"trace":"`+tid+`"`) {
		t.Errorf("logs do not carry trace %s:\n%s", tid, buf.String())
	}
}

// TestTraceparentContinuation: an inbound W3C traceparent is continued —
// the request's spans join the caller's trace instead of starting a new
// one.
func TestTraceparentContinuation(t *testing.T) {
	s := newFakeServer(Config{Tracer: obs.NewTracer(64)}, (&countingRunner{}).run)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const remoteTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, _ := http.NewRequest("GET", ts.URL+"/v1/sim?benchmark=gzip&scheme=dcg", nil)
	req.Header.Set(obs.TraceparentHeader, "00-"+remoteTrace+"-00f067aa0ba902b7-01")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != remoteTrace {
		t.Fatalf("X-Trace-Id = %q, want the inbound trace %q", got, remoteTrace)
	}
	spans := getTrace(t, ts, remoteTrace)
	if len(spans) == 0 {
		t.Fatal("no spans recorded under the inbound trace ID")
	}
	for _, sp := range spans {
		if sp.Name == "http /v1/sim" && sp.ParentID != "00f067aa0ba902b7" {
			t.Errorf("request root parent = %q, want the remote span", sp.ParentID)
		}
	}
}

// TestTracesEndpointFormatsAndValidation: export formats and parameter
// validation of /v1/traces, and its absence when tracing is off.
func TestTracesEndpointFormatsAndValidation(t *testing.T) {
	s := newFakeServer(Config{Tracer: obs.NewTracer(64)}, (&countingRunner{}).run)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if resp, _ := postSim(t, ts, SimRequest{Benchmark: "gzip", Scheme: "dcg"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("sim: HTTP %d", resp.StatusCode)
	}

	for _, tc := range []struct {
		query string
		want  int
		ct    string
	}{
		{"", http.StatusOK, "application/json"},
		{"?format=jsonl", http.StatusOK, "application/jsonl; charset=utf-8"},
		{"?format=chrome", http.StatusOK, "application/json"},
		{"?format=protobuf", http.StatusBadRequest, ""},
		{"?trace_id=nothex", http.StatusBadRequest, ""},
		{"?limit=-1", http.StatusBadRequest, ""},
	} {
		resp, err := ts.Client().Get(ts.URL + "/v1/traces" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET /v1/traces%s: HTTP %d, want %d", tc.query, resp.StatusCode, tc.want)
		}
		if tc.ct != "" && resp.Header.Get("Content-Type") != tc.ct {
			t.Errorf("GET /v1/traces%s: Content-Type %q, want %q",
				tc.query, resp.Header.Get("Content-Type"), tc.ct)
		}
	}

	// The chrome export must be a loadable trace-event document.
	resp, err := ts.Client().Get(ts.URL + "/v1/traces?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil || len(doc.TraceEvents) == 0 {
		t.Errorf("chrome export unparsable (err %v, %d events)", err, len(doc.TraceEvents))
	}

	// Without a tracer the endpoint is not mounted.
	off := newFakeServer(Config{}, (&countingRunner{}).run)
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()
	respOff, err := tsOff.Client().Get(tsOff.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	respOff.Body.Close()
	if respOff.StatusCode != http.StatusNotFound {
		t.Errorf("/v1/traces with tracing off: HTTP %d, want 404", respOff.StatusCode)
	}
}

// TestSweepJobTraceAndProgress is the sweep acceptance test: a submitted
// job carries a trace ID, its items span under one connected tree, and
// /v1/sweeps/{id}/progress derives throughput from those item spans.
func TestSweepJobTraceAndProgress(t *testing.T) {
	cr := &countingRunner{}
	s := newFakeServer(Config{
		Workers:  2,
		SweepDir: t.TempDir(),
		Tracer:   obs.NewTracer(512),
	}, cr.run)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, v := postSweep(t, ts, sweepSpecJSON)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	final := waitSweepState(t, ts, v.ID)
	if final.State != sweepDone {
		t.Fatalf("job finished %q, want done", final.State)
	}

	// The job view and its summary both surface the trace ID.
	var raw struct {
		TraceID string `json:"trace_id"`
		Summary struct {
			TraceID string `json:"trace_id"`
		} `json:"summary"`
	}
	sresp, err := ts.Client().Get(ts.URL + "/v1/sweeps/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(sresp.Body).Decode(&raw)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if raw.TraceID == "" || raw.Summary.TraceID != raw.TraceID {
		t.Fatalf("job trace ids: view %q, summary %q", raw.TraceID, raw.Summary.TraceID)
	}

	spans := getTrace(t, ts, raw.TraceID)
	root := assertConnectedTree(t, spans)
	if root.Name != "sweep.job" {
		t.Errorf("job root span = %q", root.Name)
	}
	names := spanNames(spans)
	// 2 benchmarks x 2 schemes = 4 items, each resolved through
	// simrun.lookup.
	if names["sweep.item"] != 4 {
		t.Errorf("sweep.item spans = %d, want 4; have %v", names["sweep.item"], names)
	}
	if names["simrun.lookup"] == 0 {
		t.Errorf("item stages not traced: %v", names)
	}

	presp, err := ts.Client().Get(ts.URL + "/v1/sweeps/" + v.ID + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("progress: HTTP %d", presp.StatusCode)
	}
	var prog struct {
		State         string  `json:"state"`
		TraceID       string  `json:"trace_id"`
		Total         int     `json:"total"`
		OK            int     `json:"ok"`
		Pending       int     `json:"pending"`
		Done          bool    `json:"done"`
		ItemsFinished float64 `json:"items_finished"`
		ItemsPerSec   float64 `json:"items_per_sec"`
	}
	if err := json.NewDecoder(presp.Body).Decode(&prog); err != nil {
		t.Fatal(err)
	}
	if prog.State != sweepDone || !prog.Done || prog.Total != 4 || prog.OK != 4 || prog.Pending != 0 {
		t.Errorf("progress counts wrong: %+v", prog)
	}
	if prog.TraceID != raw.TraceID {
		t.Errorf("progress trace id %q, want %q", prog.TraceID, raw.TraceID)
	}
	if prog.ItemsFinished != 4 || prog.ItemsPerSec <= 0 {
		t.Errorf("span-derived throughput missing: %+v", prog)
	}

	// Unknown jobs 404.
	nf, err := ts.Client().Get(ts.URL + "/v1/sweeps/no-such-job/progress")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Errorf("progress for unknown job: HTTP %d, want 404", nf.StatusCode)
	}
}
