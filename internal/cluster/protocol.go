// Package cluster is the distributed sweep fleet: a coordinator that
// serves a sweep job's capture-leader/replay-follower DAG over HTTP as
// leases, and a worker loop that claims items, executes them through
// the same simrun executor a single-node sweep uses, and reports
// results back.
//
// The protocol is a work-stealing pull model. Workers poll the
// coordinator for leases; the coordinator hands out eligible items —
// honouring the DAG (replay followers stay gated until their timing
// group's capture leader is terminal) and capture-leader affinity
// (a timing group's items prefer the worker that holds its capture,
// chosen by rendezvous hashing of the group's simrun key over the live
// workers, so a workload+config's capture lands on one worker and its
// replays coalesce there). A lease carries a TTL; workers renew it as
// a heartbeat while executing. A worker that dies simply stops
// renewing — the lease expires and the item requeues, which is NOT a
// failure attempt (exactly as a SIGKILLed single-node sweep does not
// consume retries on resume). Failure accounting is the sweep
// package's FailurePolicy, shared verbatim with the in-process engine,
// so Summary.FirstError and manifest counts are identical across
// single-node and distributed runs.
//
// Results checkpoint through the same fsynced manifest and finalise
// through the same deterministic writer as the engine, so a job's
// results.jsonl is byte-identical however many workers produced it,
// and a job started single-node can be resumed distributed (and vice
// versa). Every lease carries a W3C traceparent rooted in the job's
// span, so a distributed sweep is one queryable trace.
package cluster

import (
	"dcg/internal/simrun"
	"dcg/internal/sweep"
)

// Item completion statuses reported by workers.
const (
	StatusOK     = "ok"
	StatusFailed = "failed"
)

// LeaseRequest asks the coordinator for one work item.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseGrant hands one sweep item to a worker for at most TTLMillis.
// The worker must Renew before the TTL elapses or the item requeues.
type LeaseGrant struct {
	JobID   string     `json:"job_id"`
	LeaseID string     `json:"lease_id"`
	Index   int        `json:"index"`
	Key     simrun.Key `json:"key"`
	// Attempt is the execution attempt this lease represents (1-based),
	// informational for worker logs; the coordinator owns the count.
	Attempt   int   `json:"attempt"`
	TTLMillis int64 `json:"ttl_ms"`
	// Traceparent continues the job's trace across the process hop
	// (W3C trace-context value; empty when the job is untraced).
	Traceparent string `json:"traceparent,omitempty"`
}

// RenewRequest extends a lease (the worker's heartbeat).
type RenewRequest struct {
	Worker  string `json:"worker"`
	JobID   string `json:"job_id"`
	LeaseID string `json:"lease_id"`
	Index   int    `json:"index"`
}

// CompleteRequest reports one executed item. An "ok" report carries the
// deterministic result row; a "failed" report carries the error and
// consumes one attempt under the job's FailurePolicy.
type CompleteRequest struct {
	Worker  string            `json:"worker"`
	JobID   string            `json:"job_id"`
	LeaseID string            `json:"lease_id"`
	Index   int               `json:"index"`
	Status  string            `json:"status"`
	Outcome string            `json:"outcome,omitempty"`
	Error   string            `json:"error,omitempty"`
	Result  *sweep.ItemResult `json:"result,omitempty"`
}

// WorkerProgress is one worker's slice of a job, served in the
// per-worker breakdown of GET /v1/sweeps/{id}/progress.
type WorkerProgress struct {
	Name string `json:"name"`
	// Claimed counts leases granted to this worker (including requeued
	// re-grants); Done and Failed count its completion reports.
	Claimed int `json:"claimed"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
	// LastHeartbeatMillis is how long ago the worker last called in.
	LastHeartbeatMillis int64 `json:"last_heartbeat_ms"`
	// Live is false once the worker has been silent for longer than the
	// liveness window (it no longer attracts affinity routing).
	Live bool `json:"live"`
}
