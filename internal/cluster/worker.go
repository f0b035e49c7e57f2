package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"dcg/internal/obs"
	"dcg/internal/retry"
	"dcg/internal/simrun"
	"dcg/internal/sweep"
)

// Client is the worker's view of the coordinator. Lease's bool is false
// when the coordinator has no eligible work right now (poll again).
type Client interface {
	Lease(ctx context.Context, worker string) (*LeaseGrant, bool, error)
	Renew(ctx context.Context, req RenewRequest) error
	Complete(ctx context.Context, rep CompleteRequest) error
}

// DirectClient serves the protocol in-process from a Hub — the embedded
// workers dcgserve runs alongside its coordinator, and tests.
type DirectClient struct {
	Hub *Hub
}

func (d DirectClient) Lease(ctx context.Context, worker string) (*LeaseGrant, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	g, ok := d.Hub.Lease(worker)
	return g, ok, nil
}

func (d DirectClient) Renew(ctx context.Context, req RenewRequest) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return d.Hub.Renew(req)
}

func (d DirectClient) Complete(ctx context.Context, rep CompleteRequest) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return d.Hub.Complete(rep)
}

// HTTPClient speaks the protocol to a remote coordinator (dcgworker's
// client). Transient transport and 5xx failures retry under Retry; a
// 410 maps to ErrLeaseLost and other 4xxs are permanent.
type HTTPClient struct {
	// Base is the protocol root, e.g. http://host:8080/cluster/v1.
	Base  string
	HTTP  *http.Client
	Retry retry.Policy
}

// NewHTTPClient builds a client with the default retry policy.
func NewHTTPClient(base string) *HTTPClient {
	return &HTTPClient{
		Base:  strings.TrimRight(base, "/"),
		HTTP:  &http.Client{Timeout: 30 * time.Second},
		Retry: retry.Default(),
	}
}

// post sends one protocol request, decoding a 200 body into out (when
// out is non-nil). The bool is false on 204 (no work).
func (c *HTTPClient) post(ctx context.Context, path string, in, out any) (bool, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return false, retry.Permanent(err)
	}
	granted := false
	err = c.Retry.Do(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			c.Base+path, bytes.NewReader(body))
		if err != nil {
			return retry.Permanent(err)
		}
		req.Header.Set("Content-Type", "application/json")
		obs.Inject(ctx, req.Header)
		resp, err := c.HTTP.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusNoContent:
			granted = false
			return nil
		case resp.StatusCode == http.StatusOK:
			granted = true
			if out == nil {
				io.Copy(io.Discard, resp.Body)
				return nil
			}
			return json.NewDecoder(resp.Body).Decode(out)
		case resp.StatusCode == http.StatusGone:
			return retry.Permanent(ErrLeaseLost)
		case resp.StatusCode >= 400 && resp.StatusCode < 500:
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			return retry.Permanent(fmt.Errorf("cluster: %s: %s (%d)",
				path, strings.TrimSpace(string(msg)), resp.StatusCode))
		default:
			return fmt.Errorf("cluster: %s: status %d", path, resp.StatusCode)
		}
	})
	return granted, err
}

func (c *HTTPClient) Lease(ctx context.Context, worker string) (*LeaseGrant, bool, error) {
	var g LeaseGrant
	ok, err := c.post(ctx, "/lease", LeaseRequest{Worker: worker}, &g)
	if err != nil || !ok {
		return nil, false, err
	}
	return &g, true, nil
}

func (c *HTTPClient) Renew(ctx context.Context, req RenewRequest) error {
	_, err := c.post(ctx, "/renew", req, nil)
	return err
}

func (c *HTTPClient) Complete(ctx context.Context, rep CompleteRequest) error {
	_, err := c.post(ctx, "/complete", rep, nil)
	return err
}

// Worker is one execution loop of the fleet: claim a lease, run the
// item through the simrun executor, report, repeat. Run several Workers
// sharing one Exec (and one Name) for a multi-slot node.
type Worker struct {
	// Name identifies this node to the coordinator. Affinity routes a
	// timing group's replays to the Name that executed its capture, so
	// all loops sharing an Exec (and thus a store) must share a Name.
	Name   string
	Client Client
	Exec   *simrun.Exec

	// Poll is the idle re-poll interval when the coordinator has no
	// eligible work (default 250ms).
	Poll time.Duration

	Log    *slog.Logger
	Tracer *obs.Tracer

	// Sleep is the idle wait (nil = real). Tests inject a fake.
	Sleep func(ctx context.Context, d time.Duration) error

	executed atomic.Uint64
}

// Executed reports how many items this worker has finished executing
// (reported or abandoned), for logs and tests.
func (w *Worker) Executed() uint64 { return w.executed.Load() }

// Run polls for leases and executes them until ctx ends. Cancelling ctx
// models worker death mid-item: any in-flight item is abandoned without
// a report, so its lease simply expires at the coordinator — identical
// to a SIGKILL as far as failure accounting is concerned.
func (w *Worker) Run(ctx context.Context) error {
	log := w.Log
	if log == nil {
		log = obs.NopLogger()
	}
	poll := w.Poll
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	sleep := w.Sleep
	if sleep == nil {
		sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		}
	}
	log.Info("cluster: worker running", "worker", w.Name)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		grant, ok, err := w.Client.Lease(ctx, w.Name)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			log.Warn("cluster: lease poll failed", "worker", w.Name, "err", err)
			ok = false
		}
		if !ok {
			if err := sleep(ctx, poll); err != nil {
				return err
			}
			continue
		}
		w.execute(ctx, grant, log)
	}
}

// execute runs one leased item: heartbeat in the background, execute
// through the shared executor, report the verdict. A lost lease or a
// dying worker abandons silently — the coordinator's expiry owns that
// path, and reporting a ctx-cancellation error as a failure would
// wrongly consume one of the item's attempts.
func (w *Worker) execute(ctx context.Context, grant *LeaseGrant, log *slog.Logger) {
	// Continue the job's trace across the process hop: the lease span is
	// the remote parent of this item span.
	itemCtx := obs.WithTraceparent(ctx, grant.Traceparent)
	var span *obs.Span
	if w.Tracer != nil {
		itemCtx, span = w.Tracer.StartRoot(itemCtx, "cluster.item")
		span.SetAttr("worker", w.Name)
		span.SetAttrInt("index", int64(grant.Index))
		span.SetAttr("bench", grant.Key.Bench)
		span.SetAttr("scheme", grant.Key.Scheme.String())
		span.SetAttrInt("attempt", int64(grant.Attempt))
		defer span.Finish()
	}
	itemCtx, cancel := context.WithCancel(itemCtx)
	defer cancel()

	// Heartbeat at a third of the TTL; a lost lease cancels the item so
	// a long execution stops burning cycles on work the coordinator has
	// already requeued.
	ttl := time.Duration(grant.TTLMillis) * time.Millisecond
	var lost atomic.Bool
	heartbeatDone := make(chan struct{})
	go func() {
		defer close(heartbeatDone)
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-itemCtx.Done():
				return
			case <-t.C:
				err := w.Client.Renew(itemCtx, RenewRequest{
					Worker: w.Name, JobID: grant.JobID,
					LeaseID: grant.LeaseID, Index: grant.Index,
				})
				if errors.Is(err, ErrLeaseLost) {
					log.Warn("cluster: lease lost mid-item, abandoning",
						"worker", w.Name, "job", grant.JobID, "index", grant.Index)
					lost.Store(true)
					cancel()
					return
				}
				if err != nil {
					log.Warn("cluster: heartbeat failed", "worker", w.Name,
						"job", grant.JobID, "index", grant.Index, "err", err)
				}
			}
		}
	}()

	res, out, err := w.Exec.Do(itemCtx, grant.Key)
	cancel()
	<-heartbeatDone
	w.executed.Add(1)

	rep := CompleteRequest{
		Worker: w.Name, JobID: grant.JobID,
		LeaseID: grant.LeaseID, Index: grant.Index,
	}
	if err != nil {
		if ctx.Err() != nil || lost.Load() {
			// Dying worker or requeued item: no report. The lease expiry
			// path owns this outcome and it must not count as an attempt.
			if span != nil {
				span.Err = "abandoned"
			}
			return
		}
		rep.Status = StatusFailed
		rep.Error = err.Error()
		if span != nil {
			span.Err = rep.Error
		}
	} else {
		rep.Status = StatusOK
		rep.Outcome = out.String()
		rep.Result = sweep.NewItemResult(sweep.Item{Index: grant.Index, Key: grant.Key}, res)
		if span != nil {
			span.SetAttr("outcome", rep.Outcome)
		}
	}
	if rerr := w.Client.Complete(ctx, rep); rerr != nil {
		// An unreportable item is abandoned like a death: the lease
		// expires and the item re-runs elsewhere, with no attempt burned.
		if !errors.Is(rerr, ErrLeaseLost) {
			log.Warn("cluster: completion report failed, abandoning lease",
				"worker", w.Name, "job", grant.JobID, "index", grant.Index, "err", rerr)
		}
		if span != nil && span.Err == "" {
			span.Err = "report failed: " + rerr.Error()
		}
	}
}
