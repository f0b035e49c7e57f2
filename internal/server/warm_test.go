package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dcg/internal/core"
	"dcg/internal/simrun"
	"dcg/internal/store"
)

// TestStoreMakesRestartWarm is the persistence acceptance test: a second
// server process (fresh executor, fresh in-memory caches) over the same
// store directory serves a previously computed request from the artifact
// store without re-simulating.
func TestStoreMakesRestartWarm(t *testing.T) {
	dir := t.TempDir()
	req := SimRequest{Benchmark: "gzip", Scheme: "dcg", Insts: 5_000, Warmup: 1_000}

	st1, err := store.Open(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Workers: 2, Store: st1})
	ts1 := httptest.NewServer(s1.Handler())
	resp, first := postSim(t, ts1, req)
	if resp.StatusCode != http.StatusOK || first.Source != "simulated" {
		t.Fatalf("first life: status %d source %q", resp.StatusCode, first.Source)
	}
	ts1.Close()

	// "Restart": a brand-new server and store handle over the same dir.
	st2, err := store.Open(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 2, Store: st2})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	resp, second := postSim(t, ts2, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second life: status %d", resp.StatusCode)
	}
	if second.Source != "store" {
		t.Fatalf("second life source = %q, want store", second.Source)
	}
	if second.Cycles != first.Cycles || second.AvgPower != first.AvgPower || second.Saving != first.Saving {
		t.Fatalf("store round-trip changed the result:\nfirst  %+v\nsecond %+v", first, second)
	}

	// The accounting invariant holds with the new source: the one
	// lookup counts once, under "store".
	if got := s2.m.served.With("store").Value(); got != 1 {
		t.Errorf("served{store} = %d, want 1", got)
	}
	if got := servedTotal(s2); got != 1 {
		t.Errorf("served total = %d, want 1 (one lookup)", got)
	}
	if sims := s2.m.simsRun.Value(); sims != 0 {
		t.Errorf("second life ran %d simulations, want 0", sims)
	}

	// A repeat within the second life is now an in-memory cache hit, not
	// a second store read.
	if _, third := postSim(t, ts2, req); third.Source != "cache" {
		t.Errorf("repeat source = %q, want cache", third.Source)
	}

	// The store counters are on /metrics, next to the build identity.
	mresp, err := ts2.Client().Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metrics := string(mbody)
	for _, want := range []string{"dcg_store_hits_total 1", "dcg_build_info{", "dcgserve_sim_served_total{source=\"store\"} 1"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestBatchClientDisconnectCancelsItems is the regression test for
// request-context propagation through /v1/batch: when the client goes
// away mid-batch, every in-flight item's simulation observes the
// cancellation and the queued items never run.
func TestBatchClientDisconnectCancelsItems(t *testing.T) {
	const workers = 2
	started := make(chan struct{}, 16)
	var canceled atomic.Int64
	run := func(ctx context.Context, k simrun.Key) (*core.Result, error) {
		started <- struct{}{}
		<-ctx.Done() // only a client disconnect (or timeout) can free us
		canceled.Add(1)
		return nil, ctx.Err()
	}
	s := newFakeServer(Config{Workers: workers}, run)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(BatchRequest{
		Benchmarks: []string{"gzip", "mcf", "art", "gcc"},
		Schemes:    []string{"dcg"},
		Insts:      1000,
	})
	reqCtx, disconnect := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(reqCtx, http.MethodPost, ts.URL+"/v1/batch", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")

	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	// Wait until the worker pool is saturated (the other items are queued),
	// then drop the client.
	for i := 0; i < workers; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d simulations started within 5s", i)
		}
	}
	disconnect()

	if err := <-errc; err == nil {
		t.Fatal("batch request succeeded after the client disconnected")
	}

	// Every started simulation must observe the cancellation promptly.
	deadline := time.Now().Add(5 * time.Second)
	for canceled.Load() < workers && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := canceled.Load(); got < workers {
		t.Fatalf("%d of %d in-flight simulations observed the disconnect", got, workers)
	}
	// And the queued items drain without ever simulating.
	for time.Now().Before(deadline) && s.m.activeSims.Value() != 0 {
		time.Sleep(time.Millisecond)
	}
	if active := s.m.activeSims.Value(); active != 0 {
		t.Fatalf("%d simulations still active after disconnect", active)
	}
	select {
	case <-started:
		t.Fatal("a queued item started after the client disconnected")
	default:
	}
}

// TestHealthzReportsBuildInfo: the health probe's JSON body carries the
// binary's build identity and flips to "draining" on Drain.
func TestHealthzReportsBuildInfo(t *testing.T) {
	s := newFakeServer(Config{}, (&countingRunner{}).run)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var body struct {
		Status    string  `json:"status"`
		Version   string  `json:"version"`
		Revision  string  `json:"revision"`
		UptimeSec float64 `json:"uptime_sec"`
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("healthz body is not JSON: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || body.Status != "ok" {
		t.Fatalf("healthy: status %d body %+v", resp.StatusCode, body)
	}
	if body.Version == "" || body.Revision == "" {
		t.Fatalf("build identity missing: %+v", body)
	}
	if body.UptimeSec < 0 {
		t.Fatalf("negative uptime: %+v", body)
	}

	s.Drain()
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("draining healthz body is not JSON: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || body.Status != "draining" {
		t.Fatalf("draining: status %d body %+v", resp.StatusCode, body)
	}
}
