package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcg/internal/cluster"
	"dcg/internal/core"
	"dcg/internal/simrun"
	"dcg/internal/store"
	"dcg/internal/sweep"
)

// fleetSpec is small enough for real simulation in a unit-test budget
// but wide enough to exercise capture groups across benchmarks.
func fleetSpec() *sweep.Spec {
	return &sweep.Spec{
		Name:       "fleet",
		Benchmarks: []string{"gzip", "mcf"},
		Schemes:    []string{"none", "dcg", "ddcg"},
		MaxInsts:   3000,
		Warmup:     500,
	}
}

// singleNodeResults runs spec through the in-process engine and returns
// its results.jsonl bytes — the reference every distributed run must
// reproduce exactly.
func singleNodeResults(t *testing.T, spec *sweep.Spec) []byte {
	t.Helper()
	dir := t.TempDir()
	eng := &sweep.Engine{Exec: simrun.NewExec(0, 0), Workers: 4}
	sum, err := eng.Start(context.Background(), spec, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Done {
		t.Fatalf("single-node reference run not done: %+v", sum)
	}
	data, err := cluster.ReadResults(dir)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// newFleetStore opens a coordinator-side origin store and serves it over
// HTTP, returning the origin and the server URL for worker remotes.
func newFleetStore(t *testing.T) (*store.Store, string) {
	t.Helper()
	origin, err := store.Open(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(origin.Handler())
	t.Cleanup(srv.Close)
	return origin, srv.URL
}

// newFleetWorker builds a worker with its own executor and local store,
// remote-tiered to the fleet origin — the dcgworker wiring in miniature.
func newFleetWorker(t *testing.T, name, originURL string, client cluster.Client) *cluster.Worker {
	t.Helper()
	local, err := store.Open(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	remote := store.NewRemote(originURL, local, nil)
	exec := simrun.NewExec(64, 8)
	exec.Store = remote
	return &cluster.Worker{
		Name: name, Client: client, Exec: exec,
		Poll: 2 * time.Millisecond,
	}
}

// runFleet drives one job to completion on a hub with n in-process
// workers, returning the summary.
func runFleet(t *testing.T, hub *cluster.Hub, dir string, spec *sweep.Spec, workers []*cluster.Worker) *sweep.Summary {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	workerCtx, stopWorkers := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *cluster.Worker) {
			defer wg.Done()
			w.Run(workerCtx)
		}(w)
	}
	sum, err := hub.RunJob(ctx, "job-"+spec.Name, dir, spec)
	stopWorkers()
	wg.Wait()
	if err != nil {
		t.Fatalf("fleet job failed: %v", err)
	}
	return sum
}

// TestFleetMatchesSingleNode is the tentpole acceptance test: a
// coordinator with three workers — each with its own executor, local
// store and remote tier — produces byte-identical results.jsonl to a
// single-node engine run of the same spec.
func TestFleetMatchesSingleNode(t *testing.T) {
	spec := fleetSpec()
	want := singleNodeResults(t, spec)

	_, originURL := newFleetStore(t)
	hub := cluster.NewHub(cluster.HubConfig{LeaseTTL: 5 * time.Second})
	client := cluster.DirectClient{Hub: hub}
	var workers []*cluster.Worker
	for i := 0; i < 3; i++ {
		workers = append(workers, newFleetWorker(t, fmt.Sprintf("w%d", i), originURL, client))
	}
	dir := t.TempDir()
	sum := runFleet(t, hub, dir, spec, workers)

	if !sum.Done || sum.Failed != 0 {
		t.Fatalf("fleet summary = %+v, want done with no failures", sum)
	}
	items, err := spec.Items()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != len(items) {
		t.Fatalf("completed = %d, want %d", sum.Completed, len(items))
	}
	got, err := cluster.ReadResults(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed results.jsonl differs from single-node run\n got: %d bytes\nwant: %d bytes", len(got), len(want))
	}
	// The job is no longer coordinated once RunJob returns.
	if ws := hub.JobWorkers("job-" + spec.Name); ws != nil {
		t.Fatalf("finished job still reports workers: %+v", ws)
	}
}

// TestFleetRunsOneCapturePerThrottledTiming runs plb-ext and dcg+plb,
// which share plb-ext's throttled TimingKey, over three benchmarks on two
// workers, counting captures by TimingKey: each key's follower follows
// its leader to the worker that holds the capture, so the job makes one
// capture per key and still writes results.jsonl byte-identical to a
// single-node run's.
func TestFleetRunsOneCapturePerThrottledTiming(t *testing.T) {
	spec := &sweep.Spec{Name: "families", Benchmarks: []string{"gzip", "mcf", "art"},
		Schemes: []string{"dcg+plb", "plb-ext"}, MaxInsts: 3000, Warmup: 500}
	want := singleNodeResults(t, spec)

	_, originURL := newFleetStore(t)
	hub := cluster.NewHub(cluster.HubConfig{LeaseTTL: 5 * time.Second})
	client := cluster.DirectClient{Hub: hub}
	var mu sync.Mutex
	captures := make(map[simrun.TimingKey]int)
	var workers []*cluster.Worker
	for i := 0; i < 2; i++ {
		w := newFleetWorker(t, fmt.Sprintf("w%d", i), originURL, client)
		capture := w.Exec.Capture
		w.Exec.Capture = func(ctx context.Context, k simrun.Key) (*core.Result, *core.Timing, error) {
			mu.Lock()
			captures[k.TimingKey()]++
			mu.Unlock()
			return capture(ctx, k)
		}
		workers = append(workers, w)
	}
	dir := t.TempDir()
	if sum := runFleet(t, hub, dir, spec, workers); !sum.Done || sum.Failed != 0 {
		t.Fatalf("fleet summary = %+v, want done with no failures", sum)
	}
	if len(captures) != len(spec.Benchmarks) {
		t.Errorf("captures ran for %d timing keys, want %d: %v", len(captures), len(spec.Benchmarks), captures)
	}
	for k, n := range captures {
		if n != 1 || k.Throttle != core.SchemePLBExt {
			t.Errorf("timing %s under %q ran %d captures, want 1 under plb-ext", k.Bench, k.Throttle, n)
		}
	}
	got, err := cluster.ReadResults(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("results.jsonl of the throttled job differs from the single-node run's")
	}
}

// TestFleetSurvivesWorkerDeath SIGKILLs (via context cancellation, which
// abandons in-flight leases without a report — the same externally
// visible behaviour) one of two workers mid-sweep. The job must still
// complete with results byte-identical to a single-node run, and the
// deaths must not consume failure attempts.
func TestFleetSurvivesWorkerDeath(t *testing.T) {
	spec := fleetSpec()
	want := singleNodeResults(t, spec)

	_, originURL := newFleetStore(t)
	// A short TTL so the victim's abandoned lease requeues quickly.
	hub := cluster.NewHub(cluster.HubConfig{LeaseTTL: 300 * time.Millisecond})
	client := cluster.DirectClient{Hub: hub}
	victim := newFleetWorker(t, "victim", originURL, client)
	survivor := newFleetWorker(t, "survivor", originURL, client)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	victimCtx, kill := context.WithCancel(ctx)
	survivorCtx, stopSurvivor := context.WithCancel(ctx)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); victim.Run(victimCtx) }()
	go func() { defer wg.Done(); survivor.Run(survivorCtx) }()

	// Kill the victim as soon as it holds work, so an in-flight item is
	// genuinely abandoned mid-execution.
	go func() {
		for victimCtx.Err() == nil {
			if victim.Executed() > 0 || hub.LeasesOutstanding() > 0 {
				kill()
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	dir := t.TempDir()
	sum, err := hub.RunJob(ctx, "job-kill", dir, spec)
	stopSurvivor()
	kill()
	wg.Wait()
	if err != nil {
		t.Fatalf("fleet job failed after worker death: %v", err)
	}
	if !sum.Done || sum.Failed != 0 {
		t.Fatalf("summary after worker death = %+v, want done with no failures", sum)
	}
	got, err := cluster.ReadResults(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("results.jsonl after worker death differs from single-node run")
	}
}

// TestFleetOverHTTP runs the whole protocol over real HTTP — hub handler
// on an httptest server, workers speaking HTTPClient — and byte-compares
// against single-node again. This is the dcgworker wiring end to end.
func TestFleetOverHTTP(t *testing.T) {
	spec := &sweep.Spec{Name: "http", Benchmarks: []string{"gzip"},
		Schemes: []string{"none", "dcg"}, MaxInsts: 3000, Warmup: 500}
	want := singleNodeResults(t, spec)

	_, originURL := newFleetStore(t)
	hub := cluster.NewHub(cluster.HubConfig{LeaseTTL: 5 * time.Second})
	srv := httptest.NewServer(hub.Handler())
	t.Cleanup(srv.Close)

	var workers []*cluster.Worker
	for i := 0; i < 2; i++ {
		client := cluster.NewHTTPClient(srv.URL)
		client.Retry.Sleep = func(ctx context.Context, d time.Duration) error { return ctx.Err() }
		workers = append(workers, newFleetWorker(t, fmt.Sprintf("h%d", i), originURL, client))
	}
	dir := t.TempDir()
	sum := runFleet(t, hub, dir, spec, workers)
	if !sum.Done {
		t.Fatalf("HTTP fleet summary = %+v, want done", sum)
	}
	got, err := cluster.ReadResults(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("HTTP fleet results.jsonl differs from single-node run")
	}
}

// TestFailureAccountingParity is the regression test for the shared
// failure policy: the same deterministically failing workload, run with
// the same retry budget through the single-node engine and through the
// cluster, must yield the same FirstError, the same failure counts, and
// the same per-item attempt counts in the manifest.
func TestFailureAccountingParity(t *testing.T) {
	spec := &sweep.Spec{Name: "parity", Benchmarks: []string{"gzip", "mcf"},
		Schemes: []string{"none"}, MaxInsts: 1000}
	const retries = 2
	// mcf's capture always fails; gzip's succeeds.
	newExec := func() *simrun.Exec {
		e := simrun.NewExec(0, 0)
		e.Capture = func(ctx context.Context, k simrun.Key) (*core.Result, *core.Timing, error) {
			if k.Bench == "mcf" {
				return nil, nil, errors.New("injected fault")
			}
			return &core.Result{Benchmark: k.Bench, Scheme: k.Scheme.String(), Cycles: k.Insts},
				&core.Timing{Benchmark: k.Bench}, nil
		}
		return e
	}

	engDir := t.TempDir()
	eng := &sweep.Engine{Exec: newExec(), Workers: 1, Retries: retries, Backoff: time.Microsecond}
	engSum, err := eng.Start(context.Background(), spec, engDir)
	if err != nil {
		t.Fatal(err)
	}

	hub := cluster.NewHub(cluster.HubConfig{
		LeaseTTL: 5 * time.Second, Retries: retries, Backoff: time.Microsecond,
	})
	w := &cluster.Worker{Name: "w1", Client: cluster.DirectClient{Hub: hub},
		Exec: newExec(), Poll: time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	workerCtx, stop := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); w.Run(workerCtx) }()
	cluDir := t.TempDir()
	cluSum, err := hub.RunJob(ctx, "job-parity", cluDir, spec)
	stop()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	if engSum.Failed != cluSum.Failed || engSum.Completed != cluSum.Completed {
		t.Fatalf("counts diverge: engine %+v vs cluster %+v", engSum, cluSum)
	}
	if engSum.FirstError != cluSum.FirstError {
		t.Fatalf("FirstError diverges:\n engine: %q\ncluster: %q", engSum.FirstError, cluSum.FirstError)
	}
	if engSum.FirstError == "" {
		t.Fatal("parity test exercised no failure")
	}
	engAttempts, cluAttempts := attempts(t, engDir), attempts(t, cluDir)
	if len(engAttempts) != len(cluAttempts) {
		t.Fatalf("manifest attempts diverge: engine %v vs cluster %v", engAttempts, cluAttempts)
	}
	for idx, n := range engAttempts {
		if cluAttempts[idx] != n {
			t.Fatalf("item %d attempts diverge: engine %d vs cluster %d", idx, n, cluAttempts[idx])
		}
	}
}

// attempts extracts the per-item attempt counts from a job manifest.
func attempts(t *testing.T, dir string) map[int]int {
	t.Helper()
	_, items, err := sweep.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[int]int)
	for idx, r := range items {
		out[idx] = r.Attempts
	}
	return out
}

// TestFleetResumeAcrossModes starts a sweep single-node, interrupts it,
// and finishes it distributed: the checkpoint format is shared, so the
// final results must be byte-identical to an uninterrupted single-node
// run.
func TestFleetResumeAcrossModes(t *testing.T) {
	spec := fleetSpec()
	want := singleNodeResults(t, spec)

	// Run single-node but cancel once the second timing capture starts:
	// with one worker, the first capture group is checkpointed by then.
	dir := t.TempDir()
	var captures atomic.Int32
	ctx, cancel := context.WithCancel(context.Background())
	exec := simrun.NewExec(0, 0)
	capture := exec.Capture
	exec.Capture = func(ctx context.Context, k simrun.Key) (*core.Result, *core.Timing, error) {
		if captures.Add(1) >= 2 {
			cancel()
		}
		return capture(ctx, k)
	}
	eng := &sweep.Engine{Exec: exec, Workers: 1}
	if _, err := eng.Start(ctx, spec, dir); err == nil {
		t.Fatal("interrupted run reported no error")
	}
	data, err := os.ReadFile(filepath.Join(dir, sweep.ManifestFile))
	if err != nil || len(data) == 0 {
		t.Fatalf("interrupted run left no checkpoint (err %v)", err)
	}

	// Finish it with a fleet.
	_, originURL := newFleetStore(t)
	hub := cluster.NewHub(cluster.HubConfig{LeaseTTL: 5 * time.Second})
	client := cluster.DirectClient{Hub: hub}
	workers := []*cluster.Worker{
		newFleetWorker(t, "w0", originURL, client),
		newFleetWorker(t, "w1", originURL, client),
	}
	sum := runFleet(t, hub, dir, spec, workers)
	if !sum.Done || sum.Skipped == 0 {
		t.Fatalf("cross-mode resume summary = %+v, want done with skipped items", sum)
	}
	got, err := cluster.ReadResults(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("cross-mode resumed results.jsonl differs from uninterrupted single-node run")
	}
}
