package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dcg/internal/core"
	"dcg/internal/workload"
)

// FuzzRequestBodies serves arbitrary bodies to POST /v1/sim and POST
// /v1/batch (the route byte's low bit picks one) through the handler, on
// the production executor with fake Capture and Evaluate seams behind it
// (countingRunner counts the captures). The handlers must never
// panic; a fault in the body alone is the client's and never gets a 5xx
// (a 504 is the deadline a body's timeout_ms asked for); a 200 decodes
// as the documented response with no unknown field; and no batch runs,
// or answers, more items than the benchmark x scheme pairs. The corpus
// is seeded with the bodies of TestBadRequests and TestRequestBounds.
func FuzzRequestBodies(f *testing.F) {
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	for _, req := range []SimRequest{
		{Benchmark: "gzip", Scheme: "dcg", Insts: 10_000},
		{Benchmark: "quake3"},
		{Benchmark: "gzip", Scheme: "psychic"},
		{Benchmark: "gzip", Insts: 1_000_000},
		{Benchmark: "gzip", Insts: 10_000, IntALUs: 99},
		{Benchmark: "mcf", Deep: true, IntALUs: 4, Warmup: 5_000, TimeoutMs: 100},
	} {
		f.Add(byte(0), marshal(req))
	}
	tenDCG := make([]string, 10)
	for i := range tenDCG {
		tenDCG[i] = "dcg"
	}
	maxItems := len(workload.Names()) * len(core.AllSchemes())
	unknown := make([]string, maxItems)
	for i := range unknown {
		unknown[i] = "nosuch"
	}
	for _, req := range []BatchRequest{
		{Benchmarks: []string{"all"}, Schemes: tenDCG},
		{Benchmarks: unknown},
		{Benchmarks: []string{"int"}, Schemes: []string{"none", "dcg", "plb-ext"}, Insts: 10_000},
		{Benchmarks: []string{"gzip", "mcf"}, IntALUs: -1},
	} {
		f.Add(byte(1), marshal(req))
	}
	huge := []byte(`{"benchmark":"` + strings.Repeat("a", maxRequestBody) + `"}`)
	f.Add(byte(0), huge)
	f.Add(byte(1), huge)
	f.Add(byte(1), []byte(`{"benchmarks":`))

	cr := &countingRunner{}
	h := newFakeServer(Config{MaxInsts: 100_000, Workers: 2}, cr.run).Handler()
	f.Fuzz(func(t *testing.T, route byte, body []byte) {
		path := "/v1/sim"
		if route&1 != 0 {
			path = "/v1/batch"
		}
		runs := cr.runs.Load()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code >= 500 {
			var req struct {
				TimeoutMs int64 `json:"timeout_ms"`
			}
			if rec.Code != http.StatusGatewayTimeout || json.Unmarshal(body, &req) != nil || req.TimeoutMs <= 0 {
				t.Fatalf("%s: HTTP %d for a body-only fault: %s", path, rec.Code, rec.Body)
			}
		}
		if n := cr.runs.Load() - runs; n > int64(maxItems) {
			t.Fatalf("%s: one request ran %d captures, past the %d pairs", path, n, maxItems)
		}
		if rec.Code != http.StatusOK {
			return
		}
		dec := json.NewDecoder(rec.Body)
		dec.DisallowUnknownFields()
		if path == "/v1/sim" {
			var out SimResponse
			if err := dec.Decode(&out); err != nil || out.Source == "" || out.Error != "" {
				t.Fatalf("/v1/sim: a 200 that is not a result (%v): %+v", err, out)
			}
			return
		}
		var out BatchResponse
		if err := dec.Decode(&out); err != nil {
			t.Fatalf("/v1/batch: a 200 that is not a batch response: %v", err)
		}
		if len(out.Results) > maxItems {
			t.Fatalf("/v1/batch: %d results, past the %d pairs", len(out.Results), maxItems)
		}
		for i, r := range out.Results {
			if (r.Error == "") == (r.Source == "") {
				t.Fatalf("/v1/batch: item %d is neither a result nor a failure: %+v", i, r)
			}
		}
	})
}
