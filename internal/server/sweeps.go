package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sync"

	"dcg/internal/cluster"
	"dcg/internal/obs"
	"dcg/internal/sweep"
)

// Sweep job lifecycle states reported by the API.
const (
	sweepRunning     = "running"
	sweepDone        = "done"
	sweepFailed      = "failed"      // finished, but items failed (resubmit retries them)
	sweepCanceled    = "canceled"    // stopped by DELETE (resubmit resumes)
	sweepInterrupted = "interrupted" // found on disk from a previous process (resubmit resumes)
)

// sweepJob is one asynchronous sweep run.
type sweepJob struct {
	ID   string `json:"id"`
	Name string `json:"name"`

	dir     string
	cancel  context.CancelFunc
	done    chan struct{}
	span    *obs.Span // the job's root span; nil when untraced
	traceID string

	mu      sync.Mutex
	state   string
	summary *sweep.Summary
	err     error
}

// view is the job's wire representation, merged with on-disk progress.
type sweepJobView struct {
	ID      string         `json:"id"`
	Name    string         `json:"name"`
	State   string         `json:"state"`
	TraceID string         `json:"trace_id,omitempty"`
	Error   string         `json:"error,omitempty"`
	Summary *sweep.Summary `json:"summary,omitempty"`
	Status  *sweep.Status  `json:"progress,omitempty"`
}

func (j *sweepJob) view() sweepJobView {
	j.mu.Lock()
	v := sweepJobView{ID: j.ID, Name: j.Name, State: j.state, TraceID: j.traceID, Summary: j.summary}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	j.mu.Unlock()
	if st, err := sweep.ReadStatus(j.dir); err == nil {
		v.Status = st
	}
	return v
}

// sweepJobs is the in-process job registry over a sweep directory.
type sweepJobs struct {
	engine *sweep.Engine
	root   string
	log    *slog.Logger
	tracer *obs.Tracer  // nil = untraced jobs
	hub    *cluster.Hub // nil = single-node engine execution

	mu   sync.Mutex
	jobs map[string]*sweepJob
}

func newSweepJobs(engine *sweep.Engine, root string, log *slog.Logger, tracer *obs.Tracer) *sweepJobs {
	return &sweepJobs{engine: engine, root: root, log: log, tracer: tracer, jobs: make(map[string]*sweepJob)}
}

// jobID derives the stable job identity: the spec's name plus a spec-hash
// prefix. Resubmitting an identical spec addresses the same job (and so
// resumes it after a cancel, crash, or restart); an edited spec gets a
// fresh identity.
func jobID(spec *sweep.Spec) string {
	return fmt.Sprintf("%s-%.12s", spec.Name, spec.Hash())
}

var sweepIDPattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// submit starts (or resumes) the job for spec, returning the existing job
// when one is already running or finished in this process.
func (sj *sweepJobs) submit(spec *sweep.Spec) (*sweepJob, bool) {
	id := jobID(spec)
	sj.mu.Lock()
	defer sj.mu.Unlock()
	if j, ok := sj.jobs[id]; ok {
		j.mu.Lock()
		running := j.state == sweepRunning || j.state == sweepDone
		j.mu.Unlock()
		if running {
			return j, false
		}
		// Finished badly (failed/canceled): fall through and restart it —
		// the manifest makes the restart a resume.
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &sweepJob{
		ID: id, Name: spec.Name,
		dir:    filepath.Join(sj.root, id),
		cancel: cancel,
		done:   make(chan struct{}),
		state:  sweepRunning,
	}
	if sj.tracer != nil {
		// The job span is rooted here, not per request: the job outlives
		// the submitting request, and its trace ID must be queryable (for
		// /v1/traces and the progress ETA) while the job is still running.
		ctx, j.span = sj.tracer.StartRoot(ctx, "sweep.job")
		j.span.SetAttr("job", id)
		j.traceID = j.span.TraceID.String()
	}
	sj.jobs[id] = j
	go sj.run(ctx, j, spec)
	return j, true
}

// run drives one job to completion and records its terminal state. In
// cluster mode the job is registered with the hub and executed by the
// worker fleet; either way the same checkpoint files are written, so a
// job can move between modes across restarts.
func (sj *sweepJobs) run(ctx context.Context, j *sweepJob, spec *sweep.Spec) {
	defer close(j.done)
	defer j.cancel()
	var sum *sweep.Summary
	var err error
	switch {
	case sj.hub != nil:
		sum, err = sj.hub.RunJob(ctx, j.ID, j.dir, spec)
	default:
		if _, statErr := os.Stat(filepath.Join(j.dir, sweep.ManifestFile)); statErr == nil {
			sum, err = sj.engine.Resume(ctx, j.dir)
		} else {
			sum, err = sj.engine.Start(ctx, spec, j.dir)
		}
	}
	j.mu.Lock()
	j.summary, j.err = sum, err
	switch {
	case errors.Is(err, context.Canceled):
		j.state = sweepCanceled
		j.err = nil
	case err != nil:
		j.state = sweepFailed
	case sum != nil && !sum.Done:
		j.state = sweepFailed
	default:
		j.state = sweepDone
	}
	state := j.state
	j.mu.Unlock()
	if j.span != nil {
		j.span.SetAttr("state", state)
		j.span.Finish()
	}
	if j.traceID != "" {
		sj.log.Info("sweep job finished", "id", j.ID, "state", state, "trace", j.traceID)
	} else {
		sj.log.Info("sweep job finished", "id", j.ID, "state", state)
	}
}

// get returns the in-process job, or a view synthesised from disk when
// the job belongs to a previous process life.
func (sj *sweepJobs) get(id string) (*sweepJob, *sweepJobView) {
	sj.mu.Lock()
	j, ok := sj.jobs[id]
	sj.mu.Unlock()
	if ok {
		return j, nil
	}
	if !sweepIDPattern.MatchString(id) {
		return nil, nil
	}
	dir := filepath.Join(sj.root, id)
	st, err := sweep.ReadStatus(dir)
	if err != nil {
		return nil, nil
	}
	state := sweepInterrupted
	if st.Done {
		state = sweepDone
	}
	return nil, &sweepJobView{ID: id, Name: st.Name, State: state, Status: st}
}

// list snapshots every in-process job plus finished/interrupted jobs
// found on disk.
func (sj *sweepJobs) list() []sweepJobView {
	seen := make(map[string]bool)
	var out []sweepJobView
	sj.mu.Lock()
	jobs := make([]*sweepJob, 0, len(sj.jobs))
	for _, j := range sj.jobs {
		jobs = append(jobs, j)
	}
	sj.mu.Unlock()
	for _, j := range jobs {
		out = append(out, j.view())
		seen[j.ID] = true
	}
	entries, err := os.ReadDir(sj.root)
	if err != nil {
		return out
	}
	for _, e := range entries {
		if !e.IsDir() || seen[e.Name()] {
			continue
		}
		if _, v := sj.get(e.Name()); v != nil {
			out = append(out, *v)
		}
	}
	return out
}

// handleSweepSubmit accepts a sweep spec and starts (or resumes) its job.
func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("reading spec: %w", err))
		return
	}
	spec, err := sweep.Parse(body)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if !sweepIDPattern.MatchString(spec.Name) {
		s.fail(w, http.StatusBadRequest,
			fmt.Errorf("sweep name %q must match %s", spec.Name, sweepIDPattern))
		return
	}
	if err := validateSpecAgainstLimits(spec, s.cfg.MaxInsts); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	job, started := s.sweeps.submit(spec)
	status := http.StatusOK
	if started {
		status = http.StatusAccepted
	}
	s.writeJSON(w, status, job.view())
}

// validateSpecAgainstLimits applies the service's per-run limits to a
// sweep spec before any work starts.
func validateSpecAgainstLimits(spec *sweep.Spec, maxInsts uint64) error {
	if spec.MaxInsts > maxInsts {
		return fmt.Errorf("max_insts %d exceeds the service limit %d", spec.MaxInsts, maxInsts)
	}
	return nil
}

// handleSweepList lists known jobs.
func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	jobs := s.sweeps.list()
	if jobs == nil {
		jobs = []sweepJobView{}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs})
}

// handleSweepStatus reports one job's progress.
func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, view := s.sweeps.get(id)
	switch {
	case job != nil:
		s.writeJSON(w, http.StatusOK, job.view())
	case view != nil:
		s.writeJSON(w, http.StatusOK, view)
	default:
		s.fail(w, http.StatusNotFound, fmt.Errorf("no sweep job %q", id))
	}
}

// handleSweepResults streams a completed job's results.jsonl.
func (s *Server) handleSweepResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, view := s.sweeps.get(id)
	if job == nil && view == nil {
		s.fail(w, http.StatusNotFound, fmt.Errorf("no sweep job %q", id))
		return
	}
	if !sweepIDPattern.MatchString(id) {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad sweep id %q", id))
		return
	}
	f, err := os.Open(filepath.Join(s.cfg.SweepDir, id, sweep.ResultsFile))
	if err != nil {
		s.fail(w, http.StatusConflict,
			fmt.Errorf("sweep %q has no results yet (not finished?)", id))
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	_, _ = io.Copy(w, f)
}

// handleSweepCancel stops a running job. The manifest keeps everything
// already completed, so resubmitting the same spec resumes rather than
// restarts.
func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, _ := s.sweeps.get(id)
	if job == nil {
		s.fail(w, http.StatusNotFound, fmt.Errorf("no running sweep job %q", id))
		return
	}
	job.cancel()
	<-job.done
	s.writeJSON(w, http.StatusOK, job.view())
}
