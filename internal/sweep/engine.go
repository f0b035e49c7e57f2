package sweep

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dcg/internal/obs"
	"dcg/internal/simrun"
)

// Engine executes sweep items on a bounded worker pool through a shared
// simrun executor. The zero value is not usable; fill in Exec.
type Engine struct {
	// Exec runs (and memoises) the simulations. Attach a persistent
	// store to it to make sweeps restart-warm across processes.
	Exec *simrun.Exec

	// Workers bounds concurrent simulations (default GOMAXPROCS).
	Workers int

	// Retries is how many times a failed item is re-attempted
	// (default 0: one attempt). Context cancellation is never retried.
	Retries int

	// Backoff is the base delay between attempts; attempt n waits
	// n*Backoff (default 100ms when Retries > 0).
	Backoff time.Duration

	// Log receives progress and failure records (nil = disabled).
	Log *slog.Logger

	// Metrics, when set, receives per-item observations.
	Metrics *Metrics

	// Tracer, when set, roots a span per run when the caller's context
	// does not already carry one (the CLI path; the server roots the job
	// span itself). Item spans always parent under the context's span,
	// so a nil Tracer still traces server-submitted sweeps.
	Tracer *obs.Tracer
}

// Summary reports a finished (or interrupted) run.
type Summary struct {
	Name      string `json:"name"`
	SpecHash  string `json:"spec_hash"`
	Total     int    `json:"total"`     // items in the expansion
	Skipped   int    `json:"skipped"`   // completed by an earlier run, not re-executed
	Completed int    `json:"completed"` // completed by this run
	Failed    int    `json:"failed"`    // failed after all retries
	// FirstError identifies the first item failure, empty when none.
	FirstError string `json:"first_error,omitempty"`
	// Done is true when every item has a successful result and
	// results.jsonl has been written.
	Done bool `json:"done"`
	// TraceID identifies the run's span tree (empty when untraced). It
	// lives on the summary, never in the deterministic results stream.
	TraceID string `json:"trace_id,omitempty"`
}

// ErrExists reports a Start into a directory that already holds a
// manifest; Resume is the right call there.
var ErrExists = errors.New("sweep: job directory already has a manifest (use resume)")

// Start begins a fresh sweep job in dir: the spec is persisted, a new
// manifest is created, and every item is executed. An empty dir runs the
// sweep ephemerally (no checkpoint, no results file) — the mode
// internal/experiments uses.
func (e *Engine) Start(ctx context.Context, spec *Spec, dir string) (*Summary, error) {
	items, err := spec.Items()
	if err != nil {
		return nil, err
	}
	if dir == "" {
		return e.run(ctx, spec, items, nil, nil, "")
	}
	man, err := CreateJob(dir, spec, items)
	if err != nil {
		return nil, err
	}
	defer man.Close()
	return e.run(ctx, spec, items, nil, man, dir)
}

// Resume continues a killed or interrupted sweep job from its manifest:
// items with a durable successful record are served from the checkpoint
// without re-execution; failed and missing items run. The results stream
// a resumed job finally emits is byte-identical to an uninterrupted
// run's.
func (e *Engine) Resume(ctx context.Context, dir string) (*Summary, error) {
	spec, items, done, man, err := ResumeJob(dir)
	if err != nil {
		return nil, err
	}
	defer man.Close()
	return e.run(ctx, spec, items, done, man, dir)
}

// RunKeys executes a flat key list ephemerally through the sweep
// scheduler — the capture-leader DAG and the bounded pool, with no
// checkpointing. It returns the first item error. This is the engine
// behind experiments.Runner's prefetch.
func (e *Engine) RunKeys(ctx context.Context, keys []simrun.Key) error {
	items := make([]Item, len(keys))
	for i, k := range keys {
		items[i] = Item{Index: i, Key: k}
	}
	sum, err := e.runItems(ctx, "keys", items, nil, nil, "", true)
	if err != nil {
		return err
	}
	if sum.Failed > 0 {
		return fmt.Errorf("sweep: %d of %d runs failed (first: %s)", sum.Failed, sum.Total, sum.FirstError)
	}
	return nil
}

// run executes a spec's items; see runItems.
func (e *Engine) run(ctx context.Context, spec *Spec, items []Item,
	done map[int]*ItemResult, man *Manifest, dir string) (*Summary, error) {
	sum, err := e.runItems(ctx, spec.Name, items, done, man, dir, false)
	if sum != nil {
		sum.SpecHash = spec.Hash()
	}
	return sum, err
}

// itemState tracks one scheduled item through the pool.
type itemState struct {
	item Item
	// gate, when non-nil, must be closed before this item may start: it
	// is a follower and the gate is its group's leader.
	gate chan struct{}
	// release, when non-nil, is closed when this item finishes (however
	// it finishes): it is a group's leader.
	release chan struct{}
	// leader is the leader a follower gated on (nil otherwise).
	leader *itemState
	// spanID is the leader's item span, written before release closes so
	// followers can link their spans to the capture that fed them.
	spanID obs.SpanID
}

// runItems is the scheduler core: builds the capture-once DAG over the
// pending items, executes it on the worker pool, checkpoints to man (when
// non-nil), and finally writes the deterministic results stream (when all
// items succeeded and dir is set).
func (e *Engine) runItems(ctx context.Context, name string, items []Item,
	done map[int]*ItemResult, man *Manifest, dir string, failFast bool) (*Summary, error) {
	if e.Exec == nil {
		return nil, errors.New("sweep: engine has no executor")
	}
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	log := e.Log
	if log == nil {
		log = obs.NopLogger()
	}

	// Root a job span when the context has none (CLI); a server-submitted
	// job arrives with its own root and the items parent under it.
	jobSpan := obs.SpanFromContext(ctx)
	if jobSpan == nil && e.Tracer != nil {
		ctx, jobSpan = e.Tracer.StartRoot(ctx, "sweep.job")
		defer jobSpan.Finish()
	}
	jobSpan.SetAttr("name", name)
	if tid := obs.TraceIDFromContext(ctx); tid != "" {
		log = log.With("trace", tid)
	}

	// Build the DAG: for each timing group (same TimingKey) the first
	// pending item is the capture leader, and the rest wait on it and then
	// fan out as replays. Groups of one need no coordination.
	var pending []*itemState
	leaders := make(map[simrun.TimingKey]*itemState)
	for _, it := range items {
		if _, ok := done[it.Index]; ok {
			continue
		}
		st := &itemState{item: it}
		group := it.Key.TimingKey()
		if lead, ok := leaders[group]; ok {
			if lead.release == nil {
				lead.release = make(chan struct{})
			}
			st.gate = lead.release
			st.leader = lead
		} else {
			leaders[group] = st
		}
		pending = append(pending, st)
	}

	sum := &Summary{Name: name, Total: len(items), Skipped: len(done)}
	if jobSpan != nil {
		sum.TraceID = jobSpan.TraceID.String()
		jobSpan.SetAttrInt("items", int64(len(items)))
		jobSpan.SetAttrInt("skipped", int64(sum.Skipped))
		defer func() {
			jobSpan.SetAttrInt("completed", int64(sum.Completed))
			jobSpan.SetAttrInt("failed", int64(sum.Failed))
		}()
	}
	log.Info("sweep: starting", "name", name, "items", len(items),
		"skipped", sum.Skipped, "workers", workers)
	if e.Metrics != nil {
		e.Metrics.ItemsSkipped.Add(uint64(sum.Skipped))
	}

	results := make(map[int]*ItemResult, len(items))
	for idx, r := range done {
		results[idx] = r
	}

	var (
		mu     sync.Mutex // guards results, sum counters, manErr
		manErr error
		wg     sync.WaitGroup
		sem    = make(chan struct{}, workers)
		runCtx = ctx
		cancel context.CancelFunc
	)
	if failFast {
		runCtx, cancel = context.WithCancel(ctx)
		defer cancel()
	}

	for _, st := range pending {
		wg.Add(1)
		go func(st *itemState) {
			defer wg.Done()
			// A leader that never runs must still release its followers
			// (they will attempt the capture or pass themselves through
			// the executor's coalescing — correct, just less orderly).
			if st.release != nil {
				defer close(st.release)
			}
			// Followers wait for their leader outside the semaphore, so
			// a blocked follower never occupies a worker slot.
			if st.gate != nil {
				select {
				case <-st.gate:
				case <-runCtx.Done():
					return
				}
			}
			select {
			case sem <- struct{}{}:
			case <-runCtx.Done():
				return
			}
			defer func() { <-sem }()
			if runCtx.Err() != nil {
				return
			}

			ictx, isp := obs.StartSpan(runCtx, "sweep.item")
			isp.SetAttrInt("index", int64(st.item.Index))
			isp.SetAttr("bench", st.item.Key.Bench)
			isp.SetAttr("scheme", st.item.Key.Scheme.String())
			switch {
			case st.release != nil:
				isp.SetAttr("role", "capture-leader")
			case st.leader != nil:
				isp.SetAttr("role", "replay-follower")
				// The leader writes its span ID before release closes, so
				// this read is ordered by the gate the follower waited on.
				if id := st.leader.spanID; !id.IsZero() {
					isp.SetAttr("leader_span", id.String())
				}
			}
			if isp != nil && st.release != nil {
				st.spanID = isp.ID
			}
			rec := e.runItem(ictx, st.item, log)
			if isp != nil {
				isp.SetAttr("status", rec.Status)
				if rec.Outcome != "" {
					isp.SetAttr("outcome", rec.Outcome)
				}
				isp.SetAttrInt("attempts", int64(rec.Attempts))
				isp.Err = rec.Error
				isp.Finish()
			}
			mu.Lock()
			defer mu.Unlock()
			if rec.Status == "ok" {
				sum.Completed++
				results[st.item.Index] = rec.Result
			} else {
				sum.Failed++
				if sum.FirstError == "" {
					sum.FirstError = rec.Error
				}
				if failFast && cancel != nil {
					cancel()
				}
			}
			if man != nil {
				if err := man.Append(rec); err != nil && manErr == nil {
					manErr = err
				}
			}
		}(st)
	}
	wg.Wait()

	if manErr != nil {
		return sum, manErr
	}
	if err := ctx.Err(); err != nil {
		log.Info("sweep: interrupted", "name", name,
			"completed", sum.Completed, "skipped", sum.Skipped)
		return sum, err
	}
	if sum.Failed > 0 {
		log.Warn("sweep: finished with failures", "name", name, "failed", sum.Failed)
		return sum, nil
	}

	sum.Done = true
	if dir != "" {
		if err := FinalizeResults(dir, items, results); err != nil {
			return sum, err
		}
	}
	log.Info("sweep: done", "name", name, "completed", sum.Completed,
		"skipped", sum.Skipped, "total", sum.Total)
	return sum, nil
}

// runItem executes one sweep point under the shared failure-accounting
// policy (FailurePolicy — the same rule the cluster coordinator's
// lease-requeue path applies) and returns its manifest record.
func (e *Engine) runItem(ctx context.Context, it Item, log *slog.Logger) Record {
	backoff := e.Backoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	policy := FailurePolicy{Retries: e.Retries}
	var lastErr error
	var attempts int
	for attempt := 1; ; attempt++ {
		if e.Metrics != nil {
			e.Metrics.Active.Add(1)
		}
		start := time.Now()
		res, out, err := e.Exec.Do(ctx, it.Key)
		elapsed := time.Since(start)
		if e.Metrics != nil {
			e.Metrics.Active.Add(-1)
			e.Metrics.Duration.Observe(elapsed.Seconds())
		}
		if err == nil {
			if e.Metrics != nil {
				e.Metrics.Items.With("ok").Inc()
			}
			log.Debug("sweep: item ok", "index", it.Index, "bench", it.Key.Bench,
				"scheme", it.Key.Scheme.String(), "outcome", out.String(),
				"elapsed_ms", float64(elapsed.Microseconds())/1000)
			return OKRecord(it, attempt, out.String(), res)
		}
		lastErr = err
		attempts = attempt
		if ctx.Err() != nil || policy.Exhausted(attempt) {
			break
		}
		log.Warn("sweep: item retrying", "index", it.Index, "bench", it.Key.Bench,
			"scheme", it.Key.Scheme.String(), "attempt", attempt, "err", err)
		obs.SpanFromContext(ctx).AddEvent("retry",
			obs.Attr{Key: "attempt", Value: fmt.Sprint(attempt)},
			obs.Attr{Key: "err", Value: err.Error()})
		select {
		case <-time.After(time.Duration(attempt) * backoff):
		case <-ctx.Done():
		}
	}
	if e.Metrics != nil {
		e.Metrics.Items.With("failed").Inc()
	}
	log.Error("sweep: item failed", "index", it.Index, "bench", it.Key.Bench,
		"scheme", it.Key.Scheme.String(), "err", lastErr)
	return FailedRecord(it, attempts, lastErr)
}

// Status summarises a job directory without executing anything.
type Status struct {
	Name     string `json:"name"`
	SpecHash string `json:"spec_hash"`
	Total    int    `json:"total"`
	OK       int    `json:"ok"`
	Failed   int    `json:"failed"`
	Pending  int    `json:"pending"`
	// Done is true when results.jsonl exists (the sweep completed).
	Done bool `json:"done"`
}

// ReadStatus reads a job directory's progress from its manifest.
func ReadStatus(dir string) (*Status, error) {
	hdr, records, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	st := &Status{Name: hdr.Name, SpecHash: hdr.SpecHash, Total: hdr.Items}
	for _, rec := range records {
		switch rec.Status {
		case "ok":
			st.OK++
		case "failed":
			st.Failed++
		}
	}
	st.Pending = st.Total - st.OK - st.Failed
	if _, err := os.Stat(filepath.Join(dir, ResultsFile)); err == nil {
		st.Done = true
	}
	return st, nil
}

// Metrics is the sweep engine's observability surface.
type Metrics struct {
	Items        *obs.CounterVec // dcg_sweep_items_total{status}
	ItemsSkipped *obs.Counter    // dcg_sweep_items_skipped_total
	Active       *obs.Gauge      // dcg_sweep_active_items
	Duration     *obs.Histogram  // dcg_sweep_item_seconds
}

// NewMetrics registers the sweep instruments on a registry.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Items: reg.CounterVec("dcg_sweep_items_total",
			"Sweep items finished, by final status.", "status"),
		ItemsSkipped: reg.Counter("dcg_sweep_items_skipped_total",
			"Sweep items served from a resume manifest without re-execution."),
		Active: reg.Gauge("dcg_sweep_active_items",
			"Sweep items currently executing."),
		Duration: reg.Histogram("dcg_sweep_item_seconds",
			"Wall time per executed sweep item.", nil),
	}
}
