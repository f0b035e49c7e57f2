package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dcg/internal/core"
	"dcg/internal/obs"
	"dcg/internal/simrun"
	"dcg/internal/sweep"
)

// Item lifecycle states inside the coordinator.
const (
	statePending = iota
	stateLeased
	stateOK
	stateFailed
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrLeaseLost reports a renew or failure report against a lease the
	// coordinator no longer recognises (expired and requeued, or the item
	// is already terminal). The worker should abandon the item.
	ErrLeaseLost = errors.New("cluster: lease lost")

	// ErrUnknownJob reports a call addressing a job this coordinator set
	// does not serve (finished and removed, or never existed).
	ErrUnknownJob = errors.New("cluster: unknown job")
)

// JobConfig tunes one coordinated job.
type JobConfig struct {
	// ID names the job in leases and logs (the server uses its sweep job
	// ID; the CLI uses the spec name).
	ID string

	// Dir is the job directory (spec.json, manifest.jsonl, results.jsonl)
	// — the same layout, and the same files, as a single-node sweep.
	Dir string

	// LeaseTTL is how long a worker may hold an item between heartbeats
	// before it requeues (default 10s).
	LeaseTTL time.Duration

	// Policy is the shared failure-accounting rule. Policy.Retries
	// mirrors Engine.Retries: a failure report consumes one attempt, a
	// lease expiry consumes none.
	Policy sweep.FailurePolicy

	// Backoff delays the n-th re-attempt of a failed item by n*Backoff
	// before it becomes leasable again (default 100ms), mirroring the
	// engine's in-process retry pacing.
	Backoff time.Duration

	// Log receives job lifecycle and lease-churn records (nil = silent).
	Log *slog.Logger

	// Tracer roots the job span when the submitting context carries none
	// (the CLI path); lease spans always parent under the job span.
	Tracer *obs.Tracer

	// Metrics receives lease and item observations (nil = none).
	Metrics *Metrics

	// Now is the clock (nil = time.Now). Tests inject a fake to drive
	// lease expiry deterministically.
	Now func() time.Time
}

func (cfg JobConfig) withDefaults() JobConfig {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 100 * time.Millisecond
	}
	if cfg.Log == nil {
		cfg.Log = obs.NopLogger()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return cfg
}

// itemState tracks one sweep item through the lease protocol.
type itemState struct {
	item     sweep.Item
	state    int
	attempts int // failure reports so far (lease expiries do not count)

	leaseID string
	worker  string
	expiry  time.Time
	// notBefore delays re-leasing after a failure report (retry pacing).
	notBefore time.Time

	group *group
	span  *obs.Span // the current lease's span, nil when unleased/untraced
}

func (st *itemState) terminal() bool { return st.state == stateOK || st.state == stateFailed }

// group is one timing group of the capture DAG: the items sharing a
// TimingKey under timing-neutral schemes. The leader captures; the
// followers stay ungrantable until the leader is terminal, then replay
// — preferably on the worker now holding the capture.
type group struct {
	leader *itemState
	// execWorker is the worker that completed the leader (it holds the
	// timing capture in its local store); affinity routes followers there.
	execWorker string
	// routeKey is the rendezvous-hash input: the canonical timing key.
	routeKey string
}

// workerStats is the coordinator's per-worker accounting.
type workerStats struct {
	claimed  int
	done     int
	failed   int
	lastSeen time.Time
}

// Coordinator serves one sweep job's DAG as leases. All methods are safe
// for concurrent use.
type Coordinator struct {
	cfg   JobConfig
	spec  *sweep.Spec
	items []sweep.Item
	man   *sweep.Manifest

	jobCtx  context.Context // carries the job span for lease spans
	jobSpan *obs.Span
	ownSpan bool // we rooted jobSpan and must finish it

	mu       sync.Mutex
	states   []*itemState
	byIndex  map[int]*itemState
	groups   map[simrun.TimingKey]*group
	results  map[int]*sweep.ItemResult
	workers  map[string]*workerStats
	seq      uint64
	sum      sweep.Summary
	finished bool
	finalErr error // manifest/finalize error, surfaced by Wait
	doneC    chan struct{}
}

// StartJob creates a fresh job directory (sweep.CreateJob: ErrExists
// when a manifest is already there) and a coordinator over it.
func StartJob(ctx context.Context, cfg JobConfig, spec *sweep.Spec) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	items, err := spec.Items()
	if err != nil {
		return nil, err
	}
	man, err := sweep.CreateJob(cfg.Dir, spec, items)
	if err != nil {
		return nil, err
	}
	return newCoordinator(ctx, cfg, spec, items, nil, man), nil
}

// ResumeJob reopens an interrupted job directory under a coordinator.
// Items with durable successful records are served from the checkpoint;
// spec-hash and item-count validation are sweep.ResumeJob's — identical
// to the single-node resume path.
func ResumeJob(ctx context.Context, cfg JobConfig) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	spec, items, done, man, err := sweep.ResumeJob(cfg.Dir)
	if err != nil {
		return nil, err
	}
	return newCoordinator(ctx, cfg, spec, items, done, man), nil
}

func newCoordinator(ctx context.Context, cfg JobConfig, spec *sweep.Spec,
	items []sweep.Item, done map[int]*sweep.ItemResult, man *sweep.Manifest) *Coordinator {
	c := &Coordinator{
		cfg: cfg, spec: spec, items: items, man: man,
		byIndex: make(map[int]*itemState),
		groups:  make(map[simrun.TimingKey]*group),
		results: make(map[int]*sweep.ItemResult, len(items)),
		workers: make(map[string]*workerStats),
		doneC:   make(chan struct{}),
	}
	for idx, r := range done {
		c.results[idx] = r
	}
	c.jobCtx = ctx
	c.jobSpan = obs.SpanFromContext(ctx)
	if c.jobSpan == nil && cfg.Tracer != nil {
		c.jobCtx, c.jobSpan = cfg.Tracer.StartRoot(ctx, "sweep.job")
		c.ownSpan = true
	}
	if c.jobSpan != nil {
		c.jobSpan.SetAttr("name", spec.Name)
		c.jobSpan.SetAttr("mode", "cluster")
		c.jobSpan.SetAttrInt("items", int64(len(items)))
		c.sum.TraceID = c.jobSpan.TraceID.String()
	}

	// Build the same DAG the engine builds: per timing group the first
	// pending item is the capture leader, the rest gate on it. Items with
	// a checkpointed result are terminal from the start.
	for _, it := range items {
		st := &itemState{item: it}
		if _, ok := done[it.Index]; ok {
			st.state = stateOK
		} else if core.TimingNeutral(it.Key.Scheme) {
			tk := it.Key.TimingKey()
			if g, ok := c.groups[tk]; ok {
				st.group = g
			} else {
				c.groups[tk] = &group{leader: st, routeKey: fmt.Sprintf("%+v", tk)}
				st.group = c.groups[tk]
			}
		}
		c.states = append(c.states, st)
		c.byIndex[it.Index] = st
	}
	c.sum.Name = spec.Name
	c.sum.SpecHash = spec.Hash()
	c.sum.Total = len(items)
	c.sum.Skipped = len(done)
	cfg.Log.Info("cluster: job open", "job", cfg.ID, "items", len(items),
		"skipped", len(done), "lease_ttl", cfg.LeaseTTL.String())
	c.mu.Lock()
	c.maybeFinishLocked() // a fully checkpointed job finishes immediately
	c.mu.Unlock()
	return c
}

// livenessWindow is how long a silent worker keeps attracting affinity
// routing before it is presumed dead.
func (c *Coordinator) livenessWindow() time.Duration { return 3 * c.cfg.LeaseTTL }

// noteWorkerLocked records a heartbeat from worker.
func (c *Coordinator) noteWorkerLocked(worker string, now time.Time) *workerStats {
	ws := c.workers[worker]
	if ws == nil {
		ws = &workerStats{}
		c.workers[worker] = ws
	}
	ws.lastSeen = now
	return ws
}

// expireLocked requeues every lease past its TTL. Expiry is NOT a
// failure attempt — the worker died holding the item, exactly like a
// killed single-node process, so the re-execution is free.
func (c *Coordinator) expireLocked(now time.Time) {
	for _, st := range c.states {
		if st.state != stateLeased || now.Before(st.expiry) {
			continue
		}
		c.cfg.Log.Warn("cluster: lease expired, requeuing",
			"job", c.cfg.ID, "index", st.item.Index, "worker", st.worker)
		if st.span != nil {
			st.span.Err = "lease expired"
			st.span.Finish()
			st.span = nil
		}
		st.state = statePending
		st.leaseID = ""
		st.worker = ""
		c.cfg.Metrics.expired()
	}
}

// eligibleLocked reports whether st may be leased right now: pending,
// past its retry pacing, and (for a replay follower) its capture leader
// is terminal.
func (c *Coordinator) eligibleLocked(st *itemState, now time.Time) bool {
	if st.state != statePending || now.Before(st.notBefore) {
		return false
	}
	if st.group != nil && st.group.leader != st && !st.group.leader.terminal() {
		return false
	}
	return true
}

// liveWorkersLocked lists workers heard from within the liveness window,
// sorted for deterministic rendezvous hashing.
func (c *Coordinator) liveWorkersLocked(now time.Time) []string {
	var live []string
	for name, ws := range c.workers {
		if now.Sub(ws.lastSeen) <= c.livenessWindow() {
			live = append(live, name)
		}
	}
	sort.Strings(live)
	return live
}

// preferredLocked names the worker an item should land on: the holder
// of its group's capture when one exists and is live, else the
// rendezvous choice for its routing key over the live workers.
func (c *Coordinator) preferredLocked(st *itemState, live []string, now time.Time) string {
	if st.group != nil && st.group.execWorker != "" {
		if ws := c.workers[st.group.execWorker]; ws != nil &&
			now.Sub(ws.lastSeen) <= c.livenessWindow() {
			return st.group.execWorker
		}
	}
	key := fmt.Sprintf("%+v", st.item.Key)
	if st.group != nil {
		key = st.group.routeKey
	}
	return rendezvous(key, live)
}

// rendezvous picks the highest-random-weight worker for a routing key:
// a consistent hash with no ring state, stable under worker churn.
func rendezvous(key string, workers []string) string {
	var best string
	var bestScore uint64
	for _, w := range workers {
		h := uint64(14695981039346656037)
		for i := 0; i < len(key); i++ {
			h = (h ^ uint64(key[i])) * 1099511628211
		}
		h ^= '|'
		h *= 1099511628211
		for i := 0; i < len(w); i++ {
			h = (h ^ uint64(w[i])) * 1099511628211
		}
		if best == "" || h > bestScore || (h == bestScore && w < best) {
			best, bestScore = w, h
		}
	}
	return best
}

// Acquire grants worker one eligible item, preferring items whose
// affinity points at this worker and stealing another worker's item
// only when it has none of its own. The bool is false when nothing is
// grantable right now (the worker should poll again).
func (c *Coordinator) Acquire(worker string) (*LeaseGrant, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	c.noteWorkerLocked(worker, now)
	c.expireLocked(now)
	if c.finished {
		return nil, false
	}
	live := c.liveWorkersLocked(now)
	var chosen, steal *itemState
	stolenFrom := ""
	for _, st := range c.states {
		if !c.eligibleLocked(st, now) {
			continue
		}
		pref := c.preferredLocked(st, live, now)
		if pref == "" || pref == worker {
			chosen = st
			break
		}
		if steal == nil {
			steal, stolenFrom = st, pref
		}
	}
	stole := false
	if chosen == nil {
		chosen, stole = steal, steal != nil
	}
	if chosen == nil {
		return nil, false
	}

	c.seq++
	chosen.state = stateLeased
	chosen.leaseID = fmt.Sprintf("%s.%d.%d", c.cfg.ID, chosen.item.Index, c.seq)
	chosen.worker = worker
	chosen.expiry = now.Add(c.cfg.LeaseTTL)
	c.workers[worker].claimed++
	c.cfg.Metrics.granted()
	if stole {
		c.cfg.Metrics.stole()
		c.cfg.Log.Debug("cluster: lease stolen", "job", c.cfg.ID,
			"index", chosen.item.Index, "worker", worker, "preferred", stolenFrom)
	}

	grant := &LeaseGrant{
		JobID:     c.cfg.ID,
		LeaseID:   chosen.leaseID,
		Index:     chosen.item.Index,
		Key:       chosen.item.Key,
		Attempt:   chosen.attempts + 1,
		TTLMillis: c.cfg.LeaseTTL.Milliseconds(),
	}
	if c.jobSpan != nil {
		_, sp := obs.StartSpan(c.jobCtx, "cluster.lease")
		sp.SetAttrInt("index", int64(chosen.item.Index))
		sp.SetAttr("worker", worker)
		sp.SetAttr("bench", chosen.item.Key.Bench)
		sp.SetAttr("scheme", chosen.item.Key.Scheme.String())
		chosen.span = sp
		grant.Traceparent = sp.Traceparent()
	}
	return grant, true
}

// Renew extends a lease (the worker heartbeat). ErrLeaseLost tells the
// worker its item was requeued (or finished) and must be abandoned.
func (c *Coordinator) Renew(req RenewRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	c.noteWorkerLocked(req.Worker, now)
	c.expireLocked(now)
	st := c.byIndex[req.Index]
	if st == nil || st.state != stateLeased || st.leaseID != req.LeaseID {
		return ErrLeaseLost
	}
	st.expiry = now.Add(c.cfg.LeaseTTL)
	return nil
}

// Complete records one executed item under the shared failure policy.
//
// Idempotency across lease churn: a terminal item absorbs any late
// report silently; an "ok" result is accepted even from a stale lease
// (the work is deterministic — a result is a result, whoever finished
// it); a "failed" report from a stale lease is dropped with
// ErrLeaseLost, because the requeued lease owns the item's attempts
// now and double-counting a death would diverge from single-node
// accounting.
func (c *Coordinator) Complete(rep CompleteRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	ws := c.noteWorkerLocked(rep.Worker, now)
	c.expireLocked(now)
	st := c.byIndex[rep.Index]
	if st == nil {
		return fmt.Errorf("cluster: job %s has no item %d", c.cfg.ID, rep.Index)
	}
	if st.terminal() {
		return nil
	}
	stale := st.state != stateLeased || st.leaseID != rep.LeaseID

	switch rep.Status {
	case StatusOK:
		if rep.Result == nil {
			return fmt.Errorf("cluster: ok report for item %d carries no result", rep.Index)
		}
		rec := sweep.Record{
			Type: "item", Index: st.item.Index, Status: "ok",
			Outcome: rep.Outcome, Attempts: st.attempts + 1, Result: rep.Result,
		}
		if err := c.man.Append(rec); err != nil {
			return err
		}
		st.state = stateOK
		c.results[st.item.Index] = rep.Result
		c.sum.Completed++
		ws.done++
		c.cfg.Metrics.item("ok")
		if st.group != nil && st.group.leader == st {
			// The capture now lives in this worker's store: route the
			// group's replays there.
			st.group.execWorker = rep.Worker
		}
		c.finishLeaseSpanLocked(st, rep, "")
		c.cfg.Log.Debug("cluster: item ok", "job", c.cfg.ID,
			"index", st.item.Index, "worker", rep.Worker, "outcome", rep.Outcome)

	case StatusFailed:
		if stale {
			return ErrLeaseLost
		}
		st.attempts++
		ws.failed++
		if c.cfg.Policy.Exhausted(st.attempts) {
			rec := sweep.FailedRecord(st.item, st.attempts, errors.New(rep.Error))
			if err := c.man.Append(rec); err != nil {
				return err
			}
			st.state = stateFailed
			c.sum.Failed++
			if c.sum.FirstError == "" {
				c.sum.FirstError = rec.Error
			}
			c.cfg.Metrics.item("failed")
			c.finishLeaseSpanLocked(st, rep, rec.Error)
			c.cfg.Log.Error("cluster: item failed", "job", c.cfg.ID,
				"index", st.item.Index, "worker", rep.Worker,
				"attempts", st.attempts, "err", rep.Error)
		} else {
			st.state = statePending
			st.leaseID = ""
			st.worker = ""
			st.notBefore = now.Add(time.Duration(st.attempts) * c.cfg.Backoff)
			c.finishLeaseSpanLocked(st, rep, rep.Error)
			c.cfg.Log.Warn("cluster: item retrying", "job", c.cfg.ID,
				"index", st.item.Index, "worker", rep.Worker,
				"attempt", st.attempts, "err", rep.Error)
		}

	default:
		return fmt.Errorf("cluster: bad completion status %q", rep.Status)
	}

	c.maybeFinishLocked()
	return nil
}

func (c *Coordinator) finishLeaseSpanLocked(st *itemState, rep CompleteRequest, errStr string) {
	if st.span == nil {
		return
	}
	st.span.SetAttr("status", rep.Status)
	if rep.Outcome != "" {
		st.span.SetAttr("outcome", rep.Outcome)
	}
	st.span.Err = errStr
	st.span.Finish()
	st.span = nil
}

// maybeFinishLocked finalises the job once every item is terminal:
// all-ok jobs write the deterministic results stream (byte-identical to
// a single-node run's) and Done flips true.
func (c *Coordinator) maybeFinishLocked() {
	if c.finished {
		return
	}
	for _, st := range c.states {
		if !st.terminal() {
			return
		}
	}
	c.finished = true
	if c.sum.Failed == 0 {
		if err := sweep.FinalizeResults(c.cfg.Dir, c.items, c.results); err != nil {
			c.finalErr = err
		} else {
			c.sum.Done = true
		}
	}
	c.cfg.Log.Info("cluster: job finished", "job", c.cfg.ID,
		"completed", c.sum.Completed, "failed", c.sum.Failed,
		"skipped", c.sum.Skipped, "done", c.sum.Done)
	close(c.doneC)
}

// Done is closed when every item is terminal.
func (c *Coordinator) Done() <-chan struct{} { return c.doneC }

// Wait blocks until the job finishes or ctx ends, returning the summary
// either way (partial on cancellation, like an interrupted engine run).
func (c *Coordinator) Wait(ctx context.Context) (*sweep.Summary, error) {
	select {
	case <-c.doneC:
		c.mu.Lock()
		defer c.mu.Unlock()
		sum := c.sum
		return &sum, c.finalErr
	case <-ctx.Done():
		sum := c.Summary()
		return sum, ctx.Err()
	}
}

// Summary snapshots the job's progress counters.
func (c *Coordinator) Summary() *sweep.Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	sum := c.sum
	return &sum
}

// LeasedCount reports the leases currently outstanding.
func (c *Coordinator) LeasedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.cfg.Now())
	n := 0
	for _, st := range c.states {
		if st.state == stateLeased {
			n++
		}
	}
	return n
}

// Workers snapshots the per-worker breakdown, sorted by name.
func (c *Coordinator) Workers() []WorkerProgress {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	out := make([]WorkerProgress, 0, len(c.workers))
	for name, ws := range c.workers {
		age := now.Sub(ws.lastSeen)
		out = append(out, WorkerProgress{
			Name: name, Claimed: ws.claimed, Done: ws.done, Failed: ws.failed,
			LastHeartbeatMillis: age.Milliseconds(),
			Live:                age <= c.livenessWindow(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Close releases the job's manifest and finishes its span. Call after
// Wait (or after abandoning the job).
func (c *Coordinator) Close() error {
	c.mu.Lock()
	for _, st := range c.states {
		if st.span != nil {
			st.span.Err = "job closed"
			st.span.Finish()
			st.span = nil
		}
	}
	span, own := c.jobSpan, c.ownSpan
	sum := c.sum
	c.mu.Unlock()
	if span != nil {
		span.SetAttrInt("completed", int64(sum.Completed))
		span.SetAttrInt("failed", int64(sum.Failed))
		if own {
			span.Finish()
		}
	}
	return c.man.Close()
}

// ReadResults streams a finished job's results for byte comparison and
// CLI output.
func ReadResults(dir string) ([]byte, error) {
	return os.ReadFile(filepath.Join(dir, sweep.ResultsFile))
}
