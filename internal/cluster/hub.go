package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dcg/internal/obs"
	"dcg/internal/sweep"
)

// HubConfig tunes the coordinator side of the fleet.
type HubConfig struct {
	// LeaseTTL, Retries and Backoff become each job's JobConfig; see
	// there for semantics and defaults.
	LeaseTTL time.Duration
	Retries  int
	Backoff  time.Duration

	Log    *slog.Logger
	Tracer *obs.Tracer
	Now    func() time.Time
}

// Hub multiplexes the lease protocol across the coordinator's active
// jobs and carries the fleet-wide metrics. dcgserve mounts its Handler
// under /cluster/v1/; in-process workers talk to it through a
// DirectClient. All methods are safe for concurrent use.
type Hub struct {
	cfg     HubConfig
	metrics *Metrics

	mu       sync.Mutex
	jobs     map[string]*Coordinator
	order    []string             // lease scan order: oldest job first
	lastSeen map[string]time.Time // fleet-wide worker heartbeats
}

// NewHub builds a hub. Zero-valued config fields take the JobConfig
// defaults.
func NewHub(cfg HubConfig) *Hub {
	if cfg.Log == nil {
		cfg.Log = obs.NopLogger()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Hub{
		cfg:      cfg,
		jobs:     make(map[string]*Coordinator),
		lastSeen: make(map[string]time.Time),
	}
}

// Register creates the dcg_cluster_* instruments on reg. Call once,
// before the first job runs.
func (h *Hub) Register(reg *obs.Registry) {
	h.metrics = newMetrics(reg)
	reg.GaugeFunc("dcg_cluster_workers_active",
		"Workers heard from within the liveness window.",
		func() float64 { return float64(h.ActiveWorkers()) })
	reg.GaugeFunc("dcg_cluster_leases_outstanding",
		"Work leases currently held by workers, across all jobs.",
		func() float64 { return float64(h.LeasesOutstanding()) })
	reg.GaugeFunc("dcg_cluster_jobs_active",
		"Sweep jobs currently registered with the coordinator.",
		func() float64 {
			h.mu.Lock()
			defer h.mu.Unlock()
			return float64(len(h.jobs))
		})
}

// jobConfig derives one job's config from the hub defaults.
func (h *Hub) jobConfig(id, dir string) JobConfig {
	return JobConfig{
		ID: id, Dir: dir,
		LeaseTTL: h.cfg.LeaseTTL,
		Policy:   sweep.FailurePolicy{Retries: h.cfg.Retries},
		Backoff:  h.cfg.Backoff,
		Log:      h.cfg.Log,
		Tracer:   h.cfg.Tracer,
		Metrics:  h.metrics,
		Now:      h.cfg.Now,
	}
}

// RunJob drives one sweep job through the fleet: start (or resume, when
// dir already holds a manifest) a coordinator, serve it to workers
// until every item is terminal or ctx is cancelled, then unregister it.
// The summary mirrors the single-node engine's, including the partial
// summary + ctx error an interrupted run returns.
func (h *Hub) RunJob(ctx context.Context, id, dir string, spec *sweep.Spec) (*sweep.Summary, error) {
	var c *Coordinator
	var err error
	if _, statErr := os.Stat(filepath.Join(dir, sweep.ManifestFile)); statErr == nil {
		c, err = ResumeJob(ctx, h.jobConfig(id, dir))
	} else {
		c, err = StartJob(ctx, h.jobConfig(id, dir), spec)
	}
	if err != nil {
		return nil, err
	}
	h.add(id, c)
	defer func() {
		h.remove(id)
		if cerr := c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	sum, err := c.Wait(ctx)
	return sum, err
}

func (h *Hub) add(id string, c *Coordinator) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.jobs[id]; dup {
		// The sweep-job registry already serialises submissions per ID;
		// a duplicate here is a programming error worth a loud log, not
		// a panic in the serving path.
		h.cfg.Log.Error("cluster: duplicate job registration", "job", id)
		return
	}
	h.jobs[id] = c
	h.order = append(h.order, id)
}

func (h *Hub) remove(id string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.jobs, id)
	for i, jid := range h.order {
		if jid == id {
			h.order = append(h.order[:i], h.order[i+1:]...)
			break
		}
	}
}

// job fetches a registered coordinator.
func (h *Hub) job(id string) (*Coordinator, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	c, ok := h.jobs[id]
	return c, ok
}

// snapshot lists coordinators in lease scan order.
func (h *Hub) snapshot() []*Coordinator {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*Coordinator, 0, len(h.jobs))
	for _, id := range h.order {
		out = append(out, h.jobs[id])
	}
	return out
}

// livenessWindow is how long a silent worker counts as active: three
// lease TTLs, as each job's coordinator reckons it.
func (h *Hub) livenessWindow() time.Duration {
	if h.cfg.LeaseTTL <= 0 {
		return 30 * time.Second
	}
	return 3 * h.cfg.LeaseTTL
}

// note records a fleet-wide worker heartbeat and forgets the workers
// silent past the liveness window: names come off the network, so the
// hub keeps only those heard from lately.
func (h *Hub) note(worker string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.cfg.Now()
	for name, seen := range h.lastSeen {
		if now.Sub(seen) > h.livenessWindow() {
			delete(h.lastSeen, name)
		}
	}
	h.lastSeen[worker] = now
}

// Lease grants worker an item from the oldest job with eligible work.
func (h *Hub) Lease(worker string) (*LeaseGrant, bool) {
	h.note(worker)
	for _, c := range h.snapshot() {
		if g, ok := c.Acquire(worker); ok {
			return g, true
		}
	}
	return nil, false
}

// Renew forwards a heartbeat to the lease's job. A finished-and-removed
// job reads as a lost lease: the worker must abandon the item.
func (h *Hub) Renew(req RenewRequest) error {
	h.note(req.Worker)
	c, ok := h.job(req.JobID)
	if !ok {
		return ErrLeaseLost
	}
	return c.Renew(req)
}

// Complete forwards a completion report to its job. A report for a
// removed job is dropped as a lost lease (the job finished without it).
func (h *Hub) Complete(rep CompleteRequest) error {
	h.note(rep.Worker)
	c, ok := h.job(rep.JobID)
	if !ok {
		return ErrLeaseLost
	}
	return c.Complete(rep)
}

// JobWorkers reports the per-worker breakdown for one job, nil when the
// job is not (or no longer) coordinated here.
func (h *Hub) JobWorkers(id string) []WorkerProgress {
	c, ok := h.job(id)
	if !ok {
		return nil
	}
	return c.Workers()
}

// ActiveWorkers counts workers heard from within the liveness window.
func (h *Hub) ActiveWorkers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.cfg.Now()
	n := 0
	for _, seen := range h.lastSeen {
		if now.Sub(seen) <= h.livenessWindow() {
			n++
		}
	}
	return n
}

// LeasesOutstanding counts leases currently held across all jobs.
func (h *Hub) LeasesOutstanding() int {
	n := 0
	for _, c := range h.snapshot() {
		n += c.LeasedCount()
	}
	return n
}

// WorkerNames lists the workers the hub remembers, sorted: those heard
// from within the liveness window as of the last heartbeat.
func (h *Hub) WorkerNames() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	names := make([]string, 0, len(h.lastSeen))
	for name := range h.lastSeen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Handler serves the lease protocol:
//
//	POST /lease    LeaseRequest → 200 LeaseGrant | 204 no work
//	POST /renew    RenewRequest → 200 | 410 lease lost
//	POST /complete CompleteRequest → 200 | 410 lease lost | 400 bad report
//
// Mount it under a prefix with http.StripPrefix (dcgserve uses
// /cluster/v1). 410 Gone is the protocol's "abandon that item" signal;
// workers treat it as terminal for the lease, never as retryable.
func (h *Hub) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !decodeInto(w, r, &req) || !requireWorker(w, req.Worker) {
			return
		}
		g, ok := h.Lease(req.Worker)
		if !ok {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, g)
	})
	mux.HandleFunc("POST /renew", func(w http.ResponseWriter, r *http.Request) {
		var req RenewRequest
		if !decodeInto(w, r, &req) || !requireWorker(w, req.Worker) {
			return
		}
		h.finish(w, h.Renew(req))
	})
	mux.HandleFunc("POST /complete", func(w http.ResponseWriter, r *http.Request) {
		var rep CompleteRequest
		if !decodeInto(w, r, &rep) || !requireWorker(w, rep.Worker) {
			return
		}
		h.finish(w, h.Complete(rep))
	})
	return mux
}

// finish maps a protocol error to its status code.
func (h *Hub) finish(w http.ResponseWriter, err error) {
	switch {
	case err == nil:
		writeJSON(w, map[string]string{"status": "ok"})
	case errors.Is(err, ErrLeaseLost), errors.Is(err, ErrUnknownJob):
		http.Error(w, err.Error(), http.StatusGone)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// maxRequestBytes bounds a protocol request body; completion reports
// carry one result row, so 1 MiB is generous.
const maxRequestBytes = 1 << 20

func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

// MaxWorkerName bounds the length in bytes of the worker name a protocol
// request carries: the hub and each job's coordinator remember names.
const MaxWorkerName = 256

func requireWorker(w http.ResponseWriter, worker string) bool {
	switch {
	case worker == "":
		http.Error(w, "request names no worker", http.StatusBadRequest)
	case len(worker) > MaxWorkerName:
		http.Error(w, fmt.Sprintf("worker name of %d bytes exceeds the %d-byte bound", len(worker), MaxWorkerName),
			http.StatusBadRequest)
	default:
		return true
	}
	return false
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(v)
}
