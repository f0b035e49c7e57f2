package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"dcg/internal/core"
	"dcg/internal/server"
	"dcg/internal/simrun"
	"dcg/internal/store"
	"dcg/internal/sweep"
	"dcg/internal/workload"
)

// target runs ops against one entry point of the program.
type target interface {
	// do runs one op. sent is when the request left the client (for HTTP,
	// once a connection was obtained); results are in scheme order.
	do(ctx context.Context, o op) (sent time.Time, results []result, err error)
	close()
}

// servingTarget is the real dcgserve handler behind a loopback listener.
type servingTarget struct {
	kind   opKind
	ts     *httptest.Server
	client *http.Client
}

func newServingTarget(w workloadSpec, storeDir string) (*servingTarget, error) {
	t := &servingTarget{kind: w.kind}
	var st *store.Store
	if w.store {
		var err error
		if st, err = store.Open(storeDir, 0, nil); err != nil {
			return nil, err
		}
	}
	srv := server.New(server.Config{Store: st})
	t.ts = httptest.NewServer(srv.Handler())
	// The load comes from this one process, one request at a time, so it
	// reuses one keep-alive connection.
	t.client = &http.Client{Transport: &http.Transport{}}
	return t, nil
}

func (t *servingTarget) close() {
	t.client.CloseIdleConnections()
	t.ts.Close()
}

func (t *servingTarget) do(ctx context.Context, o op) (time.Time, []result, error) {
	var req *http.Request
	var err error
	if t.kind == opSim {
		q := url.Values{
			"benchmark": {o.Bench},
			"scheme":    {o.Schemes[0]},
			"insts":     {strconv.FormatUint(o.Insts, 10)},
		}
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, t.ts.URL+"/v1/sim?"+q.Encode(), nil)
	} else {
		body, merr := json.Marshal(server.BatchRequest{
			Benchmarks: []string{o.Bench}, Schemes: o.Schemes, Insts: o.Insts,
		})
		if merr != nil {
			return time.Time{}, nil, merr
		}
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, t.ts.URL+"/v1/batch", bytes.NewReader(body))
	}
	if err != nil {
		return time.Time{}, nil, err
	}
	// GotConn may run on a transport goroutine.
	var sentNs atomic.Int64
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { sentNs.CompareAndSwap(0, time.Since(epoch).Nanoseconds()) },
	}))
	resp, err := t.client.Do(req)
	sent := epoch.Add(time.Duration(sentNs.Load()))
	if err != nil {
		return sent, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return sent, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return sent, nil, fmt.Errorf("%v: HTTP %d: %s", o, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var items []server.SimResponse
	if t.kind == opSim {
		var r server.SimResponse
		err = json.Unmarshal(body, &r)
		items = []server.SimResponse{r}
	} else {
		var br server.BatchResponse
		err = json.Unmarshal(body, &br)
		items = br.Results
	}
	if err != nil {
		return sent, nil, fmt.Errorf("%v: decoding response: %w", o, err)
	}
	results := make([]result, len(items))
	for i := range items {
		if items[i].Error != "" {
			return sent, nil, fmt.Errorf("%v: %s: %s", o, items[i].Scheme, items[i].Error)
		}
		results[i] = fromResponse(&items[i])
	}
	return sent, results, nil
}

// scrape reads the counters the per-layer table takes from the service's
// own /metrics exposition.
func (t *servingTarget) scrape() (map[string]float64, error) {
	resp, err := t.client.Get(t.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := map[string]bool{
		"dcgserve_worker_wait_seconds_sum":   true,
		"dcgserve_worker_wait_seconds_count": true,
		"dcgserve_sims_run_total":            true,
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !want[name] {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// sweepTarget runs each op as a sweep job on a fresh simrun.Exec over the
// shared store, as a restarted dcgsweep process would.
type sweepTarget struct {
	st      *store.Store
	jobsDir string
}

// newExec builds the executor a sweep process has: NewExec(1024, 16) over
// the store.
func newExec(st *store.Store) *simrun.Exec {
	ex := simrun.NewExec(1024, 16)
	ex.Store = st
	return ex
}

func (t *sweepTarget) close() {}

func (t *sweepTarget) do(ctx context.Context, o op) (time.Time, []result, error) {
	sent := time.Now()
	dir, err := t.startJob(ctx, newExec(t.st), o)
	if err != nil {
		return sent, nil, err
	}
	results, err := readResults(dir)
	if err != nil {
		return sent, nil, fmt.Errorf("%v: %w", o, err)
	}
	return sent, results, nil
}

// startJob runs one op as a sweep job and returns its job directory.
func (t *sweepTarget) startJob(ctx context.Context, ex *simrun.Exec, o op) (string, error) {
	spec := &sweep.Spec{
		Name:       jobName(o),
		Benchmarks: []string{o.Bench}, Schemes: o.Schemes, MaxInsts: o.Insts,
	}
	dir := filepath.Join(t.jobsDir, spec.Name)
	eng := &sweep.Engine{Exec: ex, Workers: runtime.NumCPU()}
	sum, err := eng.Start(ctx, spec, dir)
	if err != nil {
		return dir, fmt.Errorf("%v: %w", o, err)
	}
	if !sum.Done {
		return dir, fmt.Errorf("%v: %d items failed (first: %s)", o, sum.Failed, sum.FirstError)
	}
	return dir, nil
}

func jobName(o op) string {
	if o.ID < 0 {
		return fmt.Sprintf("warmup-%d", -o.ID)
	}
	return fmt.Sprintf("job-%d", o.ID)
}

func readResults(dir string) ([]result, error) {
	data, err := os.ReadFile(filepath.Join(dir, sweep.ResultsFile))
	if err != nil {
		return nil, err
	}
	var out []result
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		var row sweep.ItemResult
		if err := dec.Decode(&row); errors.Is(err, io.EOF) {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("reading %s: %w", sweep.ResultsFile, err)
		}
		out = append(out, fromSweepRow(&row))
	}
}

// populate stores the timing trace and the scheme-none result of every
// op's key, the state a previous sweep over the same keys leaves behind.
func populate(ctx context.Context, st *store.Store, ops []op) error {
	keys := make([]simrun.Key, len(ops))
	for i, o := range ops {
		keys[i] = simrun.Key{Bench: o.Bench, Scheme: core.SchemeNone, Insts: o.Insts}
	}
	eng := &sweep.Engine{Exec: newExec(st), Workers: runtime.NumCPU()}
	return eng.RunKeys(ctx, keys)
}

// setupRounds is how many times a run builds its stack from nothing; the
// reported setup_s is the median round.
const setupRounds = 9

// setup builds the workload's stack setupRounds times (once at smoke
// size) and returns the last one with each round's duration. The first
// round is timed from process start. Every round ends with a warm-up op
// on a key no measured op uses, so lazy runtime set-up is not charged to
// the first measured op.
//
// Serving workloads build each round from an empty store directory and
// discard all but the last. restart-sweep reopens one store per round, as
// a restarted process would, and populates its share of the measured keys
// (plus the round's warm-up key) in each, so the populated store is part
// of set-up time.
func setup(ctx context.Context, cfg runConfig, ops []op, dir string) (target, []float64, error) {
	rounds := setupRounds
	if cfg.sz.smoke {
		rounds = 1
	}
	var durs []float64
	var t target
	for r := 1; r <= rounds; r++ {
		start := time.Now()
		if r == 1 {
			start = cfg.started
		}
		if t != nil {
			t.close()
		}
		warm := op{ID: -r, Bench: workload.Names()[0], Insts: warmupInsts(cfg.w, cfg.sz, r), Schemes: cfg.w.schemes}
		if cfg.w.kind == opSim {
			warm.Schemes = cfg.w.schemes[:1]
		}
		var err error
		if cfg.w.kind == opSweep {
			t, err = sweepRound(ctx, ops[(r-1)*len(ops)/rounds:r*len(ops)/rounds], warm, dir)
		} else {
			storeDir := filepath.Join(dir, fmt.Sprintf("store-%d", r))
			if r > 1 {
				os.RemoveAll(filepath.Join(dir, fmt.Sprintf("store-%d", r-1)))
			}
			t, err = newServingTarget(cfg.w, storeDir)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("setup round %d: %w", r, err)
		}
		if _, results, err := t.do(ctx, warm); err != nil {
			return nil, nil, fmt.Errorf("setup round %d warm-up: %w", r, err)
		} else if err := checkOp(warm, results); err != nil {
			return nil, nil, fmt.Errorf("setup round %d warm-up: %w", r, err)
		}
		durs = append(durs, time.Since(start).Seconds())
	}
	return t, durs, nil
}

func sweepRound(ctx context.Context, chunk []op, warm op, dir string) (*sweepTarget, error) {
	st, err := store.Open(filepath.Join(dir, "store"), 0, nil)
	if err != nil {
		return nil, err
	}
	if err := populate(ctx, st, append(append([]op(nil), chunk...), warm)); err != nil {
		return nil, err
	}
	return &sweepTarget{st: st, jobsDir: filepath.Join(dir, "jobs")}, nil
}

// record is one op as the load generator saw it.
type record struct {
	op op
	// due is when the op was submitted; late is how long after the
	// previous op's end that was.
	due  time.Time
	late time.Duration
	sent time.Time
	done time.Time // response fully read and checked
	// cpuDue and cpuDone are the process's user+sys CPU time at due and
	// at done.
	cpuDue, cpuDone time.Duration
	results         []result
	err             error
}

func (r *record) latencyMs() float64 { return ms(r.done.Sub(r.due).Nanoseconds()) }

// serviceMs is send → response: the latency without client-side waiting.
func (r *record) serviceMs() float64 { return ms(r.done.Sub(r.sent).Nanoseconds()) }

func (r *record) run(ctx context.Context, t target) {
	r.sent, r.results, r.err = t.do(ctx, r.op)
	if r.err == nil {
		r.err = checkOp(r.op, r.results)
	}
	r.done = time.Now()
}

// drive runs the op list one op at a time (a closed loop): each op is
// submitted once the previous op's response has been read and checked.
func drive(ctx context.Context, t target, ops []op) []record {
	recs := make([]record, len(ops))
	prev := time.Now()
	for i, o := range ops {
		rec := &recs[i]
		rec.op, rec.cpuDue, rec.due = o, processCPU(), time.Now()
		rec.late = rec.due.Sub(prev)
		rec.run(ctx, t)
		rec.cpuDone = processCPU()
		prev = rec.done
	}
	return recs
}

// perRound splits the records into rounds of size ops, as planOps lays
// them out, and returns each round's throughput (successful ops ÷ the
// time from its first submit to its last response) and CPU time per
// successful op in ms. A round with no successful op is left out. Rounds
// ask for the same work, so the medians over rounds shrug off a host
// slowdown that lasts less than half the run.
func perRound(recs []record, size int) (opsPerS, cpuMs []float64) {
	for lo := 0; lo < len(recs); lo += size {
		round := recs[lo:min(lo+size, len(recs))]
		ok := 0
		for i := range round {
			if round[i].err == nil {
				ok++
			}
		}
		if ok == 0 {
			continue
		}
		first, last := &round[0], &round[len(round)-1]
		opsPerS = append(opsPerS, float64(ok)/last.done.Sub(first.due).Seconds())
		cpuMs = append(cpuMs, ms((last.cpuDone-first.cpuDue).Nanoseconds())/float64(ok))
	}
	return opsPerS, cpuMs
}

// processCPU is the process's user+sys CPU time so far (zero if getrusage
// fails).
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPUSeconds is the CPU time the Go runtime has spent on GC so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		return s[0].Value.Float64()
	}
	return 0
}

// resetPeakRSS resets VmHWM to the current RSS. It reports whether the
// kernel allowed the reset.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads VmHWM from /proc/self/status.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb * 1024 / mib
		}
	}
	return 0
}

// memSampler watches memory while the window runs: the live heap every
// 20 ms, and the peak RSS of each sub-window, with VmHWM reset as each
// sub-window starts. One coincidence of two large captures then sets one
// sub-window's peak, not the whole run's.
type memSampler struct {
	stop, done chan struct{}
	heapPeak   uint64
	rssPeaks   []float64 // MB
}

// startMemSampler starts sampling; sub is the sub-window length (0: the
// whole window is one).
func startMemSampler(sub time.Duration) *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		subStart := time.Now()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 && s[0].Value.Uint64() > m.heapPeak {
				m.heapPeak = s[0].Value.Uint64()
			}
			if sub > 0 && time.Since(subStart) >= sub {
				m.rssPeaks = append(m.rssPeaks, peakRSSMB())
				resetPeakRSS()
				subStart = time.Now()
			}
			select {
			case <-m.stop:
				// A final sub-window shorter than half counts only if
				// it is the only one.
				if len(m.rssPeaks) == 0 || time.Since(subStart) >= sub/2 {
					m.rssPeaks = append(m.rssPeaks, peakRSSMB())
				}
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// stopSampling stops the sampler and returns the peak live heap and the
// median sub-window peak RSS, both in MB.
func (m *memSampler) stopSampling() (heapMB, rssMB float64) {
	close(m.stop)
	<-m.done
	return float64(m.heapPeak) / mib, median(m.rssPeaks)
}

// epoch anchors monotonic timestamps shared across goroutines.
var epoch = time.Now()
