package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dcg/internal/cluster"
	"dcg/internal/core"
	"dcg/internal/simrun"
	"dcg/internal/store"
)

// clusterProgressView decodes the distributed-mode progress response.
type clusterProgressView struct {
	State   string                   `json:"state"`
	Total   int                      `json:"total"`
	OK      int                      `json:"ok"`
	Done    bool                     `json:"done"`
	Workers []cluster.WorkerProgress `json:"workers"`
}

// startFleet runs n in-process workers against hub, each with its own
// executor whose fake Capture and Evaluate seams pause for delay per item,
// so tests can observe the job mid-flight.
func startFleet(t *testing.T, hub *cluster.Hub, n int, delay time.Duration) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	result := func(k simrun.Key) *core.Result {
		return &core.Result{Benchmark: k.Bench, Scheme: k.Scheme.String(), Cycles: k.Insts}
	}
	for i := 0; i < n; i++ {
		exec := simrun.NewExec(0, 0)
		exec.Capture = func(ctx context.Context, k simrun.Key) (*core.Result, *core.Timing, error) {
			select {
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			case <-time.After(delay):
			}
			return result(k), &core.Timing{Benchmark: k.Bench}, nil
		}
		exec.Evaluate = func(k simrun.Key, _ *core.Timing) (*core.Result, error) {
			time.Sleep(delay)
			return result(k), nil
		}
		w := &cluster.Worker{
			Name:   "w" + string(rune('0'+i)),
			Client: cluster.DirectClient{Hub: hub},
			Exec:   exec,
			Poll:   time.Millisecond,
		}
		wg.Add(1)
		go func() { defer wg.Done(); w.Run(ctx) }()
	}
	t.Cleanup(func() { cancel(); wg.Wait() })
}

// TestClusterModeSweep submits a sweep to a coordinator-mode server and
// watches the fleet execute it: the per-worker breakdown appears in the
// progress endpoint mid-run, the job completes, results are served, and
// the dcg_cluster_* metrics are live.
func TestClusterModeSweep(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	hub := cluster.NewHub(cluster.HubConfig{LeaseTTL: 5 * time.Second})
	s := New(Config{SweepDir: t.TempDir(), Cluster: hub, Store: st})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	startFleet(t, hub, 2, 20*time.Millisecond)

	spec := `{"name": "fleet-api", "benchmarks": ["gzip", "mcf"],
		"schemes": ["none", "dcg"], "max_insts": 1000}`
	resp, v := postSweep(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}

	// Mid-run, the progress endpoint must name the workers holding work.
	sawWorkers := false
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		pr, err := ts.Client().Get(ts.URL + "/v1/sweeps/" + v.ID + "/progress")
		if err != nil {
			t.Fatal(err)
		}
		var pv clusterProgressView
		if err := json.NewDecoder(pr.Body).Decode(&pv); err != nil {
			t.Fatal(err)
		}
		pr.Body.Close()
		if len(pv.Workers) > 0 {
			sawWorkers = true
		}
		if pv.State != sweepRunning {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	final := waitSweepState(t, ts, v.ID)
	if final.State != sweepDone {
		t.Fatalf("cluster sweep state = %s (err %q), want done", final.State, final.Error)
	}
	if !sawWorkers {
		t.Fatal("progress endpoint never reported a per-worker breakdown mid-run")
	}

	rr, err := ts.Client().Get(ts.URL + "/v1/sweeps/" + v.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("results = %d, want 200", rr.StatusCode)
	}
	body, _ := io.ReadAll(rr.Body)
	if n := strings.Count(strings.TrimSpace(string(body)), "\n") + 1; n != 4 {
		t.Fatalf("results rows = %d, want 4", n)
	}

	mr, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	metrics, _ := io.ReadAll(mr.Body)
	for _, name := range []string{
		"dcg_cluster_leases_granted_total",
		"dcg_cluster_workers_active",
		"dcg_cluster_items_total",
	} {
		if !strings.Contains(string(metrics), name) {
			t.Errorf("metrics missing %s", name)
		}
	}
}

// TestClusterEndpointsMounted checks the distributed-mode mounts: the
// lease protocol answers under /cluster/v1 and the artifact store under
// /store/v1 — and neither exists on a single-node server.
func TestClusterEndpointsMounted(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	hub := cluster.NewHub(cluster.HubConfig{})
	s := New(Config{SweepDir: t.TempDir(), Cluster: hub, Store: st})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// No jobs registered: a lease poll answers 204, not 404.
	lr, err := ts.Client().Post(ts.URL+"/cluster/v1/lease", "application/json",
		strings.NewReader(`{"worker": "w1"}`))
	if err != nil {
		t.Fatal(err)
	}
	lr.Body.Close()
	if lr.StatusCode != http.StatusNoContent {
		t.Fatalf("lease poll with no jobs = %d, want 204", lr.StatusCode)
	}
	// The store mount serves (and misses on) object addresses.
	sr, err := ts.Client().Get(ts.URL + "/store/v1/objects/" + strings.Repeat("ab", 32) + ".res")
	if err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if sr.StatusCode != http.StatusNotFound {
		t.Fatalf("store miss = %d, want 404", sr.StatusCode)
	}

	single := httptest.NewServer(New(Config{SweepDir: t.TempDir()}).Handler())
	defer single.Close()
	nr, err := single.Client().Post(single.URL+"/cluster/v1/lease", "application/json",
		strings.NewReader(`{"worker": "w1"}`))
	if err != nil {
		t.Fatal(err)
	}
	nr.Body.Close()
	if nr.StatusCode != http.StatusNotFound {
		t.Fatalf("single-node server serves /cluster/v1 (%d), want 404", nr.StatusCode)
	}
}
