package cluster_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"dcg/internal/cluster"
	"dcg/internal/sweep"
)

// fakeClock is an injectable clock driving lease expiry deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// soloSpec expands to exactly one item ("none" is timing-neutral but a
// group of one has no follower gating to worry about).
func soloSpec() *sweep.Spec {
	return &sweep.Spec{Name: "solo", Benchmarks: []string{"gzip"},
		Schemes: []string{"none"}, MaxInsts: 1000}
}

// groupSpec expands to two items sharing one timing group: "none" leads
// the capture, "dcg" replays it.
func groupSpec() *sweep.Spec {
	return &sweep.Spec{Name: "grouped", Benchmarks: []string{"gzip"},
		Schemes: []string{"none", "dcg"}, MaxInsts: 1000}
}

func startJob(t *testing.T, clock *fakeClock, spec *sweep.Spec, retries int) *cluster.Coordinator {
	t.Helper()
	c, err := cluster.StartJob(context.Background(), cluster.JobConfig{
		ID: "job", Dir: t.TempDir(),
		LeaseTTL: 10 * time.Second,
		Backoff:  time.Millisecond,
		Policy:   sweep.FailurePolicy{Retries: retries},
		Now:      clock.Now,
	}, spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func okReport(g *cluster.LeaseGrant, worker string) cluster.CompleteRequest {
	return cluster.CompleteRequest{
		Worker: worker, JobID: g.JobID, LeaseID: g.LeaseID, Index: g.Index,
		Status: cluster.StatusOK, Outcome: "simulated",
		Result: &sweep.ItemResult{Index: g.Index, Bench: g.Key.Bench,
			Scheme: g.Key.Scheme.String(), Insts: 1000},
	}
}

func failReport(g *cluster.LeaseGrant, worker, msg string) cluster.CompleteRequest {
	return cluster.CompleteRequest{
		Worker: worker, JobID: g.JobID, LeaseID: g.LeaseID, Index: g.Index,
		Status: cluster.StatusFailed, Error: msg,
	}
}

// TestLeaseExpiryIsNotAnAttempt kills a worker by silence: the lease
// expires, the item requeues, and the re-grant still reports attempt 1 —
// a worker death consumes no retries, exactly like a SIGKILLed
// single-node sweep resuming.
func TestLeaseExpiryIsNotAnAttempt(t *testing.T) {
	clock := newClock()
	c := startJob(t, clock, soloSpec(), 0)

	g1, ok := c.Acquire("w1")
	if !ok {
		t.Fatal("no lease granted for a pending item")
	}
	if g1.Attempt != 1 {
		t.Fatalf("first grant attempt = %d, want 1", g1.Attempt)
	}
	// While leased, nobody else can claim it.
	if _, ok := c.Acquire("w2"); ok {
		t.Fatal("leased item granted twice")
	}
	if n := c.LeasedCount(); n != 1 {
		t.Fatalf("leased count = %d, want 1", n)
	}

	clock.Advance(11 * time.Second) // past the 10s TTL
	g2, ok := c.Acquire("w2")
	if !ok {
		t.Fatal("expired item not re-granted")
	}
	if g2.Index != g1.Index {
		t.Fatalf("re-grant index = %d, want %d", g2.Index, g1.Index)
	}
	if g2.Attempt != 1 {
		t.Fatalf("re-grant after expiry reports attempt %d, want 1 (expiry is not an attempt)", g2.Attempt)
	}
	if g2.LeaseID == g1.LeaseID {
		t.Fatal("re-grant reused the dead lease ID")
	}
}

// TestRenewExtendsLease heartbeats across several TTL windows and then
// goes silent: renewals hold the lease, silence loses it.
func TestRenewExtendsLease(t *testing.T) {
	clock := newClock()
	c := startJob(t, clock, soloSpec(), 0)
	g, _ := c.Acquire("w1")
	renew := cluster.RenewRequest{Worker: "w1", JobID: g.JobID, LeaseID: g.LeaseID, Index: g.Index}

	for i := 0; i < 3; i++ {
		clock.Advance(9 * time.Second)
		if err := c.Renew(renew); err != nil {
			t.Fatalf("renew %d within TTL failed: %v", i, err)
		}
	}
	clock.Advance(11 * time.Second)
	if err := c.Renew(renew); !errors.Is(err, cluster.ErrLeaseLost) {
		t.Fatalf("renew after expiry = %v, want ErrLeaseLost", err)
	}
}

// TestFailureReportsConsumeAttempts drives one item to terminal failure
// under Retries=1 and checks the engine-identical accounting: two
// attempts, retry pacing between them, canonical FirstError.
func TestFailureReportsConsumeAttempts(t *testing.T) {
	clock := newClock()
	c := startJob(t, clock, soloSpec(), 1)

	g1, _ := c.Acquire("w1")
	if err := c.Complete(failReport(g1, "w1", "boom")); err != nil {
		t.Fatal(err)
	}
	// Retry pacing: the item is not leasable until attempts*Backoff passes.
	if _, ok := c.Acquire("w1"); ok {
		t.Fatal("failed item re-leased before its backoff elapsed")
	}
	clock.Advance(10 * time.Millisecond)
	g2, ok := c.Acquire("w1")
	if !ok {
		t.Fatal("failed item not re-leased after backoff")
	}
	if g2.Attempt != 2 {
		t.Fatalf("second grant attempt = %d, want 2", g2.Attempt)
	}
	if err := c.Complete(failReport(g2, "w1", "boom")); err != nil {
		t.Fatal(err)
	}

	select {
	case <-c.Done():
	default:
		t.Fatal("job not finished after its only item failed terminally")
	}
	sum := c.Summary()
	if sum.Failed != 1 || sum.Completed != 0 {
		t.Fatalf("summary = %+v, want 1 failed", sum)
	}
	if !strings.Contains(sum.FirstError, "gzip/none") || !strings.Contains(sum.FirstError, "boom") {
		t.Fatalf("FirstError = %q, want canonical bench/scheme prefix with cause", sum.FirstError)
	}
}

// TestStaleReports exercises lease-churn idempotency: a stale failure is
// dropped (the new lease owns the attempts), a stale success is accepted
// (deterministic work is work), and reports against a terminal item are
// absorbed.
func TestStaleReports(t *testing.T) {
	clock := newClock()
	c := startJob(t, clock, soloSpec(), 3)

	g1, _ := c.Acquire("w1")
	clock.Advance(11 * time.Second) // w1 presumed dead, item requeues
	g2, ok := c.Acquire("w2")
	if !ok {
		t.Fatal("expired item not re-granted")
	}

	// w1 comes back from the dead with a failure: dropped.
	if err := c.Complete(failReport(g1, "w1", "late boom")); !errors.Is(err, cluster.ErrLeaseLost) {
		t.Fatalf("stale failure report = %v, want ErrLeaseLost", err)
	}
	if g3, ok := c.Acquire("w3"); ok {
		t.Fatalf("stale failure perturbed the live lease (granted item %d)", g3.Index)
	}

	// w1 comes back with a success instead: accepted, item terminal.
	if err := c.Complete(okReport(g1, "w1")); err != nil {
		t.Fatalf("stale success report = %v, want accepted", err)
	}
	sum := c.Summary()
	if sum.Completed != 1 {
		t.Fatalf("completed = %d, want 1", sum.Completed)
	}
	// w2's now-redundant report is absorbed silently.
	if err := c.Complete(okReport(g2, "w2")); err != nil {
		t.Fatalf("report against terminal item = %v, want nil", err)
	}
	if sum := c.Summary(); sum.Completed != 1 {
		t.Fatalf("terminal item double-counted: completed = %d", sum.Completed)
	}
}

// TestCompleteRefusesAnotherItemsRow: an ok report whose result row
// names another item (index, benchmark, scheme or instruction count) is
// refused, not checkpointed as this item's, and the item stays leased
// until a report carrying its own row completes it.
func TestCompleteRefusesAnotherItemsRow(t *testing.T) {
	clock := newClock()
	c := startJob(t, clock, soloSpec(), 0)
	g, _ := c.Acquire("w1")
	for _, mutate := range []func(r *sweep.ItemResult){
		func(r *sweep.ItemResult) { r.Index = 1 },
		func(r *sweep.ItemResult) { r.Bench = "mcf" },
		func(r *sweep.ItemResult) { r.Scheme = "dcg" },
		func(r *sweep.ItemResult) { r.Insts = 2000 },
	} {
		rep := okReport(g, "w1")
		mutate(rep.Result)
		if err := c.Complete(rep); err == nil || errors.Is(err, cluster.ErrLeaseLost) ||
			!strings.Contains(err.Error(), "carries the row of") {
			t.Fatalf("report with row %+v: err = %v, want a refusal", rep.Result, err)
		}
	}
	if sum := c.Summary(); sum.Completed != 0 || c.LeasedCount() != 1 {
		t.Fatalf("after refused reports: summary %+v, %d leased; want nothing completed, 1 leased", sum, c.LeasedCount())
	}
	if err := c.Complete(okReport(g, "w1")); err != nil {
		t.Fatal(err)
	}
	if sum := c.Summary(); sum.Completed != 1 || !sum.Done {
		t.Fatalf("summary = %+v, want the item completed and the job done", sum)
	}
}

// TestFollowersGateOnLeader holds the replay follower back until its
// timing group's capture leader is terminal, then routes it to the
// worker that holds the capture.
func TestFollowersGateOnLeader(t *testing.T) {
	clock := newClock()
	c := startJob(t, clock, groupSpec(), 0)

	g1, ok := c.Acquire("w1")
	if !ok {
		t.Fatal("leader not granted")
	}
	// Second worker asks while the leader runs: the follower must stay
	// gated (nothing else is eligible).
	if g, ok := c.Acquire("w2"); ok {
		t.Fatalf("follower granted before its capture leader finished (item %d)", g.Index)
	}

	if err := c.Complete(okReport(g1, "w1")); err != nil {
		t.Fatal(err)
	}
	// The capture now lives in w1's store. w2 polls first — but the
	// follower's affinity points at w1, so w2 only gets it by stealing;
	// with w1 live and hungry, w1 should receive it.
	g2, ok := c.Acquire("w1")
	if !ok {
		t.Fatal("follower not granted after leader completion")
	}
	if g2.Key.Scheme.String() != "dcg" {
		t.Fatalf("expected the dcg follower, got %s", g2.Key.Scheme)
	}
	if err := c.Complete(okReport(g2, "w1")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("job not finished with all items ok")
	}
}

// TestStealWhenAffinityWorkerBusy lets a worker steal against affinity
// rather than idle: the follower prefers the capture holder, but a
// different live worker still gets it when it asks and the holder
// doesn't.
func TestStealWhenAffinityWorkerBusy(t *testing.T) {
	clock := newClock()
	c := startJob(t, clock, groupSpec(), 0)
	g1, _ := c.Acquire("w1")
	if err := c.Complete(okReport(g1, "w1")); err != nil {
		t.Fatal(err)
	}
	// w2 asks; w1 (the preferred holder) never does. Work-stealing must
	// hand the follower to w2 rather than stall the job.
	g2, ok := c.Acquire("w2")
	if !ok {
		t.Fatal("idle worker could not steal an affinity-routed item")
	}
	if g2.Key.Scheme.String() != "dcg" {
		t.Fatalf("stole item %s, want the dcg follower", g2.Key.Scheme)
	}
}

// TestResumeServesOnlyUnfinishedItems closes a half-done job and resumes
// it under a new coordinator: checkpointed items are skipped, pending
// ones are leasable, and a fully checkpointed job finishes immediately.
func TestResumeServesOnlyUnfinishedItems(t *testing.T) {
	clock := newClock()
	dir := t.TempDir()
	cfg := cluster.JobConfig{ID: "job", Dir: dir, LeaseTTL: 10 * time.Second, Now: clock.Now}
	spec := groupSpec()

	c1, err := cluster.StartJob(context.Background(), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := c1.Acquire("w1")
	if err := c1.Complete(okReport(g, "w1")); err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := cluster.ResumeJob(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if sum := c2.Summary(); sum.Skipped != 1 {
		t.Fatalf("resumed skipped = %d, want 1", sum.Skipped)
	}
	g2, ok := c2.Acquire("w2")
	if !ok {
		t.Fatal("resumed job granted nothing for its pending item")
	}
	if g2.Index == g.Index {
		t.Fatal("resumed job re-granted a checkpointed item")
	}
	if err := c2.Complete(okReport(g2, "w2")); err != nil {
		t.Fatal(err)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}

	// Everything checkpointed now: a third resume is born finished.
	c3, err := cluster.ResumeJob(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	select {
	case <-c3.Done():
	default:
		t.Fatal("fully checkpointed job did not finish on resume")
	}
	if _, ok := c3.Acquire("w1"); ok {
		t.Fatal("finished job still granting leases")
	}
}

// TestWorkersBreakdown checks the per-worker progress counters feeding
// the sweep progress endpoint.
func TestWorkersBreakdown(t *testing.T) {
	clock := newClock()
	c := startJob(t, clock, groupSpec(), 1)
	g1, _ := c.Acquire("w1")
	if err := c.Complete(failReport(g1, "w1", "boom")); err != nil {
		t.Fatal(err)
	}
	clock.Advance(10 * time.Millisecond)
	g2, _ := c.Acquire("w1")
	if err := c.Complete(okReport(g2, "w1")); err != nil {
		t.Fatal(err)
	}
	g3, ok := c.Acquire("w2")
	if !ok {
		t.Fatal("follower not granted")
	}
	_ = g3

	ws := c.Workers()
	if len(ws) != 2 {
		t.Fatalf("worker count = %d, want 2", len(ws))
	}
	w1, w2 := ws[0], ws[1]
	if w1.Name != "w1" || w2.Name != "w2" {
		t.Fatalf("breakdown order = %s,%s, want w1,w2", w1.Name, w2.Name)
	}
	if w1.Claimed != 2 || w1.Done != 1 || w1.Failed != 1 {
		t.Fatalf("w1 = %+v, want claimed 2 / done 1 / failed 1", w1)
	}
	if w2.Claimed != 1 || !w2.Live {
		t.Fatalf("w2 = %+v, want claimed 1, live", w2)
	}
	clock.Advance(time.Hour)
	for _, w := range c.Workers() {
		if w.Live {
			t.Fatalf("worker %s still live after an hour of silence", w.Name)
		}
	}
}
