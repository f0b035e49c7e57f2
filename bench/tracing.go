package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dcg/internal/core"
	"dcg/internal/cpu"
	"dcg/internal/simrun"
	"dcg/internal/store"
	"dcg/internal/sweep"
	"dcg/internal/trace"
	"dcg/internal/usagetrace"
	"dcg/internal/workload"
)

// span is one timed call into a layer during the traced run. Spans of one
// op share Op; Parent is the enclosing span (0 for an op's root).
// Calibration spans re-run part of a call after the traced run so the
// call's time can be split between layers; Calibrates names that call.
type span struct {
	Op         int    `json:"op"`
	ID         int    `json:"id"`
	Parent     int    `json:"parent,omitempty"`
	Calibrates int    `json:"calibrates,omitempty"`
	Layer      string `json:"layer"`
	Name       string `json:"name"`
	Start      int64  `json:"start_ns"`
	End        int64  `json:"end_ns"`
	Bench      string `json:"bench,omitempty"`
	Scheme     string `json:"scheme,omitempty"`
	Engine     string `json:"engine,omitempty"`
	Cycles     uint64 `json:"cycles,omitempty"`
	Insts      uint64 `json:"insts,omitempty"`
	Bytes      int64  `json:"bytes,omitempty"`
	Hit        bool   `json:"hit,omitempty"`
	// Trace numbers the decoded trace, so the replays sharing one
	// memoized decode are told apart from the one that decoded.
	Trace int `json:"trace,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

func (s *span) is(layer, name string) bool { return s.Layer == layer && s.Name == name }

// recorder keeps the traced run's spans in memory.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []*span
	// Evaluate has no context, so parents maps its key (fresh for every
	// op) to the span it runs under.
	parents map[simrun.Key]*span
	traces  map[simrun.TimingKey]int
	pending []func()
}

func newRecorder() *recorder {
	return &recorder{
		epoch:   time.Now(),
		parents: make(map[simrun.Key]*span),
		traces:  make(map[simrun.TimingKey]int),
	}
}

type spanKey struct{}

// start opens a span under the context's span.
func (r *recorder) start(ctx context.Context, layer, name string) (context.Context, *span) {
	parent, _ := ctx.Value(spanKey{}).(*span)
	return r.open(ctx, parent, layer, name)
}

func (r *recorder) open(ctx context.Context, parent *span, layer, name string) (context.Context, *span) {
	s := &span{Layer: layer, Name: name}
	if parent != nil {
		s.Op, s.Parent = parent.Op, parent.ID
	}
	r.mu.Lock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	s.Start = time.Since(r.epoch).Nanoseconds()
	return context.WithValue(ctx, spanKey{}, s), s
}

func (r *recorder) end(s *span) { s.End = time.Since(r.epoch).Nanoseconds() }

// calibration opens a calibration span for the call of.
func (r *recorder) calibration(of *span, layer, name string) *span {
	_, s := r.open(context.Background(), nil, layer, name)
	s.Op, s.Calibrates = of.Op, of.ID
	return s
}

func (r *recorder) bind(k simrun.Key, s *span) {
	r.mu.Lock()
	r.parents[k] = s
	r.mu.Unlock()
}

func (r *recorder) parentOf(k simrun.Key) *span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.parents[k]
}

func (r *recorder) traceRef(k simrun.TimingKey) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := r.traces[k]
	if !ok {
		id = len(r.traces) + 1
		r.traces[k] = id
	}
	return id
}

// later queues a calibration for after the traced run.
func (r *recorder) later(f func()) {
	r.mu.Lock()
	r.pending = append(r.pending, f)
	r.mu.Unlock()
}

// calibrate runs the queued calibrations, NumCPU at a time. They only
// apportion a call's measured time between layers, so they run once no op
// is in flight.
func (r *recorder) calibrate() {
	r.mu.Lock()
	pending := r.pending
	r.pending = nil
	r.mu.Unlock()
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	for _, f := range pending {
		wg.Add(1)
		sem <- struct{}{}
		go func(f func()) {
			defer wg.Done()
			defer func() { <-sem }()
			f()
		}(f)
	}
	wg.Wait()
}

// tracedExec builds an executor the way server.New builds one,
// NewExec(1024, 16) over the store, with its Capture, Full and Evaluate
// seams and its store wrapped in spans around the production functions.
// workers > 0 bounds captures and full runs as the server's worker pool
// does, and the wait for a slot is a server span.
func (r *recorder) tracedExec(st *store.Store, workers int) *simrun.Exec {
	ex := simrun.NewExec(1024, 16)
	if st != nil {
		ex.Store = &tracedStore{r: r, st: st}
	}
	acquire := func(context.Context) func() { return func() {} }
	if workers > 0 {
		sem := make(chan struct{}, workers)
		acquire = func(ctx context.Context) func() {
			_, s := r.start(ctx, "server", "worker_wait")
			sem <- struct{}{}
			r.end(s)
			return func() { <-sem }
		}
	}
	ex.Capture = func(ctx context.Context, k simrun.Key) (*core.Result, *core.Timing, error) {
		defer acquire(ctx)()
		_, s := r.start(ctx, "core", "capture")
		s.Bench, s.Scheme, s.Insts = k.Bench, string(k.Scheme), k.Insts
		res, tm, err := simrun.Capture(ctx, k)
		r.end(s)
		if err == nil {
			s.Cycles, s.Bytes = tm.Cycles(), int64(tm.Trace.SizeBytes())
			r.later(func() { r.calibrateCapture(s, k) })
		}
		return res, tm, err
	}
	ex.Full = func(ctx context.Context, k simrun.Key) (*core.Result, error) {
		defer acquire(ctx)()
		_, s := r.start(ctx, "core", "full")
		s.Bench, s.Scheme, s.Insts = k.Bench, string(k.Scheme), k.Insts
		res, err := simrun.Run(ctx, k)
		r.end(s)
		if err == nil {
			s.Cycles = res.Cycles
		}
		return res, err
	}
	ex.Evaluate = func(k simrun.Key, t *core.Timing) (*core.Result, error) {
		ctx := context.WithValue(context.Background(), spanKey{}, r.parentOf(k))
		_, d := r.start(ctx, "usagetrace", "decode")
		_, err := t.Trace.Decode()
		r.end(d)
		d.Trace, d.Cycles = r.traceRef(k.TimingKey()), t.Trace.Cycles()
		if err != nil {
			return nil, err
		}
		_, s := r.start(ctx, "core", "replay")
		s.Bench, s.Scheme = k.Bench, string(k.Scheme)
		if info, ok := core.SchemeInfoFor(k.Scheme); ok {
			s.Engine = info.Replay.String()
		}
		res, err := simrun.Evaluate(k, t)
		r.end(s)
		return res, err
	}
	return ex
}

// tracedStore is the persistent tier with every *store.Store call in a
// span.
type tracedStore struct {
	r  *recorder
	st *store.Store
}

func (t *tracedStore) GetResult(ctx context.Context, k simrun.Key) (*core.Result, bool) {
	_, s := t.r.start(ctx, "store", "get_result")
	res, ok := t.st.GetResult(ctx, k)
	t.r.end(s)
	s.Hit = ok
	return res, ok
}

func (t *tracedStore) PutResult(ctx context.Context, k simrun.Key, res *core.Result) {
	_, s := t.r.start(ctx, "store", "put_result")
	t.st.PutResult(ctx, k, res)
	t.r.end(s)
}

func (t *tracedStore) GetTiming(ctx context.Context, k simrun.TimingKey) (*core.Timing, bool) {
	_, s := t.r.start(ctx, "store", "get_timing")
	tm, ok := t.st.GetTiming(ctx, k)
	t.r.end(s)
	s.Hit = ok
	if ok {
		s.Cycles = tm.Cycles()
		t.r.later(func() { t.r.calibrateRead(s, t.st, k) })
	}
	return tm, ok
}

func (t *tracedStore) PutTiming(ctx context.Context, k simrun.TimingKey, tm *core.Timing) {
	_, s := t.r.start(ctx, "store", "put_timing")
	t.st.PutTiming(ctx, k, tm)
	t.r.end(s)
	s.Bytes = int64(tm.Trace.SizeBytes())
}

// calibrateCapture times, for a capture's key, the generator loop alone
// (workload), the bare cycle core with no observers (cpu.New/Warm/Run),
// the direct simrun.Run and simrun.Capture itself. A traced capture's
// time is split between workload (generator), cpu (bare core minus
// generator), core (scheme and power accounting: direct run minus bare
// core) and usagetrace (trace encode: capture minus direct run) in these
// proportions.
func (r *recorder) calibrateCapture(of *span, k simrun.Key) {
	prof, ok := workload.ByName(k.Bench)
	if !ok {
		return
	}
	warmup := uint64(core.DefaultWarmup)
	if k.Warmup > 0 {
		warmup = k.Warmup
	}

	g := r.calibration(of, "workload", "gen")
	gen, err := workload.NewGenerator(prof)
	if err == nil {
		for i := uint64(0); i < warmup+k.Insts; i++ {
			if _, ok := gen.Next(); !ok {
				break
			}
		}
	}
	r.end(g)
	if err != nil {
		return
	}

	gen, _ = workload.NewGenerator(prof)
	w := r.calibration(of, "cpu", "warm")
	c, err := cpu.New(k.Machine(), trace.NewLimitSource(gen, k.Insts))
	if err == nil {
		c.Warm(trace.NewLimitSource(gen, warmup), ^uint64(0))
	}
	r.end(w)
	if err != nil {
		return
	}
	w.Insts = warmup
	run := r.calibration(of, "cpu", "run")
	_, err = c.Run(0)
	r.end(run)
	if err != nil {
		return
	}
	run.Cycles, run.Insts = c.Stats().Cycles, k.Insts

	// The traced capture of this key succeeded, so these do too.
	d := r.calibration(of, "core", "direct")
	_, _ = simrun.Run(context.Background(), k)
	r.end(d)
	cp := r.calibration(of, "core", "capture")
	_, _, _ = simrun.Capture(context.Background(), k)
	r.end(cp)
}

// calibrateRead times usagetrace.ReadTrace over the gzip framing of a
// trace the store served, so get_timing's time splits into usagetrace
// (inflate and validate) and store (file I/O and framing). The trace is
// fetched again rather than kept, so the traced run holds no traces.
func (r *recorder) calibrateRead(of *span, st *store.Store, k simrun.TimingKey) {
	tm, ok := st.GetTiming(context.Background(), k)
	if !ok {
		return
	}
	var buf bytes.Buffer
	if err := tm.Trace.EncodeGzip(&buf); err != nil {
		return
	}
	n := int64(buf.Len())
	s := r.calibration(of, "usagetrace", "read")
	_, _ = usagetrace.ReadTrace(&buf) // the store already validated this trace
	r.end(s)
	s.Bytes = n
}

// tracedTarget runs ops through benchmark-owned executors with every
// layer in spans. An op's root span starts as the op is submitted.
type tracedTarget struct {
	r    *recorder
	kind opKind
	st   *store.Store
	ex   *simrun.Exec // serving: one executor, as one server has
	jobs *sweepTarget

	mu     sync.Mutex
	served map[string]float64
	timing simrun.Stats // summed over sweep jobs' fresh executors
}

func (t *tracedTarget) close() {}

func (t *tracedTarget) count(outcome string) {
	t.mu.Lock()
	t.served[outcome]++
	t.mu.Unlock()
}

func (t *tracedTarget) do(ctx context.Context, o op) (time.Time, []result, error) {
	sent := time.Now()
	ctx, root := t.r.open(ctx, nil, "bench", "op")
	root.Op = o.ID
	defer t.r.end(root)
	if t.kind == opSweep {
		results, err := t.job(ctx, o)
		return sent, results, err
	}

	// Items run concurrently, as handleBatch runs them.
	results := make([]result, len(o.Schemes))
	errs := make([]error, len(o.Schemes))
	var wg sync.WaitGroup
	for i, sch := range o.Schemes {
		wg.Add(1)
		go func(i int, sch string) {
			defer wg.Done()
			k := simrun.Key{Bench: o.Bench, Scheme: core.SchemeKind(sch), Insts: o.Insts}
			lctx, s := t.r.start(ctx, "simrun", "lookup")
			t.r.bind(k, s)
			res, out, err := t.ex.Do(lctx, k)
			t.r.end(s)
			t.count(out.String())
			if err != nil {
				errs[i] = fmt.Errorf("%v: %s: %w", o, sch, err)
				return
			}
			results[i] = fromCore(o.Bench, sch, o.Insts, res)
		}(i, sch)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return sent, nil, err
		}
	}
	return sent, results, nil
}

// job runs a sweep job on a fresh traced executor.
func (t *tracedTarget) job(ctx context.Context, o op) ([]result, error) {
	jctx, s := t.r.start(ctx, "sweep", "job")
	for _, sch := range o.Schemes {
		t.r.bind(simrun.Key{Bench: o.Bench, Scheme: core.SchemeKind(sch), Insts: o.Insts}, s)
	}
	ex := t.r.tracedExec(t.st, 0)
	dir, err := t.jobs.startJob(jctx, ex, o)
	t.r.end(s)
	t.mu.Lock()
	ts := ex.TimingStats()
	t.timing.Hits += ts.Hits
	t.timing.Misses += ts.Misses
	t.timing.Coalesced += ts.Coalesced
	t.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if _, recs, err := sweep.ReadManifest(dir); err == nil {
		for _, rec := range recs {
			t.count(rec.Outcome)
		}
	}
	return readResults(dir)
}

// tracedPass is what a traced replay of the op list observed.
type tracedPass struct {
	rec    *recorder
	recs   []record
	served map[string]float64
	timing simrun.Stats

	storeHits, storeMisses     uint64
	writtenBytes, readBytes    int64
	packedLanes, fallbackLanes uint64
}

// runTraced replays the op list, one op at a time as the untraced window
// ran it, through benchmark-owned executors whose layers are wrapped in
// spans, then runs the calibrations. storeDir is an empty directory for
// serving workloads and a snapshot of the populated store for
// restart-sweep.
func runTraced(ctx context.Context, w workloadSpec, ops []op, storeDir, jobsDir string) (*tracedPass, error) {
	r := newRecorder()
	t := &tracedTarget{r: r, kind: w.kind, served: map[string]float64{}}
	if w.store {
		st, err := store.Open(storeDir, 0, nil)
		if err != nil {
			return nil, err
		}
		t.st = st
	}
	if w.kind == opSweep {
		t.jobs = &sweepTarget{st: t.st, jobsDir: jobsDir}
	} else {
		t.ex = r.tracedExec(t.st, runtime.GOMAXPROCS(0))
	}
	var st0 store.Stats
	if t.st != nil {
		st0 = t.st.Stats()
	}
	size0, rchar0 := dirBytes(storeDir), readChars()
	packed0, fallback0 := core.PackedReplaySchemes(), core.PackedReplayFallbacks()

	p := &tracedPass{rec: r, recs: drive(ctx, t, ops)}

	p.writtenBytes, p.readBytes = dirBytes(storeDir)-size0, readChars()-rchar0
	p.packedLanes = core.PackedReplaySchemes() - packed0
	p.fallbackLanes = core.PackedReplayFallbacks() - fallback0
	if t.st != nil {
		st1 := t.st.Stats()
		p.storeHits, p.storeMisses = st1.Hits-st0.Hits, st1.Misses-st0.Misses
	}
	p.served, p.timing = t.served, t.timing
	if t.ex != nil {
		p.timing = t.ex.TimingStats()
	}
	r.calibrate()
	return p, nil
}

// decoders returns the IDs of the decode spans that paid for a decode:
// the longest decode span of each trace. The others waited for it on the
// trace's memoized decode.
func decoders(spans []*span) map[int]bool {
	longest := map[[2]int]*span{}
	for _, s := range spans {
		if s.Calibrates == 0 && s.is("usagetrace", "decode") {
			k := [2]int{s.Op, s.Trace}
			if l := longest[k]; l == nil || s.dur() > l.dur() {
				longest[k] = s
			}
		}
	}
	out := map[int]bool{}
	for _, s := range longest {
		out[s.ID] = true
	}
	return out
}

// waits reports whether a span only waits for work elsewhere in its op:
// a lookup coalesced onto another item's capture, a decode that waits for
// another replay's decode of the same trace, a wait for a worker slot.
func waits(s *span, decoder map[int]bool) bool {
	switch {
	case s.is("simrun", "lookup"), s.is("server", "worker_wait"):
		return true
	case s.is("usagetrace", "decode"):
		return !decoder[s.ID]
	}
	return false
}

// attribute charges every instant of each op's root span to the spans
// doing work at that instant: the innermost open spans, split equally,
// where spans that only wait are charged only when nothing else is open.
// For an op whose items run one at a time this is each span's self time
// (its duration minus its children's); for concurrent batch items it
// keeps one op's charges summing to its duration. Calibration spans are
// not charged.
func attribute(spans []*span, decoder map[int]bool) map[int]int64 {
	byOp := map[int][]*span{}
	for _, s := range spans {
		if s.Calibrates == 0 {
			byOp[s.Op] = append(byOp[s.Op], s)
		}
	}
	charge := map[int]int64{}
	for _, ss := range byOp {
		var cuts []int64
		for _, s := range ss {
			cuts = append(cuts, s.Start, s.End)
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
		for i := 0; i+1 < len(cuts); i++ {
			a, b := cuts[i], cuts[i+1]
			if a == b {
				continue
			}
			open := map[int]*span{}
			for _, s := range ss {
				if s.Start <= a && s.End >= b {
					open[s.ID] = s
				}
			}
			var work, idle []*span
			for _, s := range open {
				inner := false
				for _, c := range open {
					if c.Parent == s.ID {
						inner = true
						break
					}
				}
				switch {
				case inner:
				case waits(s, decoder):
					idle = append(idle, s)
				default:
					work = append(work, s)
				}
			}
			if len(work) == 0 {
				work = idle
			}
			for _, s := range work {
				charge[s.ID] += (b - a) / int64(len(work))
			}
		}
	}
	return charge
}

// wholeCharge maps the spans whose whole charged time is one metric.
var wholeCharge = map[string]string{
	"usagetrace.decode": "usagetrace.decode_ms",
	"core.full":         "core.full_ms",
	"store.put_timing":  "store.put_timing_ms",
	"store.put_result":  "store.put_result_ms",
	"store.get_result":  "store.get_result_ms",
	"simrun.lookup":     "simrun.lookup_ms",
	"sweep.job":         "sweep.job_overhead_ms",
}

// layerReport turns a traced pass into the per-layer metrics and the
// per-layer time table (ms per op). untraced maps op IDs to the untraced
// window's successful records, whose send → response times the layers
// should add up to; base carries the per-layer numbers the untraced
// window measured itself. http reports whether ops went through the HTTP
// service.
func layerReport(p *tracedPass, untraced map[int]*record, base map[string]float64, http bool) (map[string]float64, map[string]float64) {
	spans := p.rec.spans
	calib := map[int][]*span{}
	for _, s := range spans {
		if s.Calibrates != 0 {
			calib[s.Calibrates] = append(calib[s.Calibrates], s)
		}
	}
	decoder := decoders(spans)
	charge := attribute(spans, decoder)

	v := map[string]float64{}
	for k, x := range base {
		v[k] = x
	}
	// perOp sums nanoseconds that are reported as means in ms per op.
	perOp := map[string]int64{}
	layer := map[string]int64{}
	var calInsts uint64
	var calCPU, otherNs, rootNs, traceBytes, decNs int64
	var cycles, decCycles uint64
	roots := map[int]*span{}
	for _, s := range spans {
		if s.Calibrates != 0 {
			continue
		}
		c := charge[s.ID]
		key := s.Layer + "." + s.Name
		if m, ok := wholeCharge[key]; ok {
			perOp[m] += c
		}
		switch key {
		case "core.capture":
			cycles += s.Cycles
			traceBytes += s.Bytes
			parts, warm, run := splitCapture(c, calib[s.ID])
			for l, t := range parts {
				layer[l] += t
			}
			perOp["workload.gen_ms"] += parts["workload"]
			perOp["usagetrace.encode_ms"] += parts["usagetrace"]
			perOp["cpu.warm_ms"] += warm.dur()
			perOp["cpu.run_ms"] += run.dur()
			if run.Cycles > 0 {
				calInsts += warm.Insts + run.Insts
				calCPU += warm.dur() + run.dur()
			}
			continue
		case "store.get_timing":
			read := int64(0)
			for _, cal := range calib[s.ID] {
				read = min(cal.dur(), c)
			}
			layer["usagetrace"] += read
			layer["store"] += c - read
			perOp["usagetrace.read_ms"] += read
			perOp["store.get_timing_ms"] += c - read
			continue
		case "usagetrace.decode":
			if decoder[s.ID] {
				decNs += s.dur()
				decCycles += s.Cycles
			}
		case "core.replay":
			perOp["core.replay_"+s.Engine+"_ms"] += c
		case "core.full":
			cycles += s.Cycles
			v["core.full_runs"]++
		case "bench.op":
			otherNs += c
			rootNs += s.dur()
			roots[s.Op] = s
		}
		layer[s.Layer] += c
	}

	n := float64(max(len(p.recs), 1))
	for name, ns := range perOp {
		v[name] = ms(ns) / n
	}
	v["cpu.cycles"] = float64(cycles)
	if calCPU > 0 {
		v["cpu.host_minsts_per_s"] = float64(calInsts) / (float64(calCPU) / 1e9) / 1e6
	}
	v["usagetrace.trace_mb"] = float64(traceBytes) / mib / n
	v["usagetrace.decodes"] = float64(len(decoder))
	if decCycles > 0 {
		v["usagetrace.decode_ns_per_cycle"] = float64(decNs) / float64(decCycles)
	}
	v["core.packed_lanes"] = float64(p.packedLanes)
	v["core.fallback_lanes"] = float64(p.fallbackLanes)
	v["store.written_mb"] = float64(p.writtenBytes) / mib / n
	v["store.read_mb"] = float64(p.readBytes) / mib / n
	if p.storeHits+p.storeMisses > 0 {
		v["store.hit_ratio"] = float64(p.storeHits) / float64(p.storeHits+p.storeMisses)
	}
	for _, src := range []string{"simulated", "replayed", "coalesced", "cache", "store"} {
		v["simrun.served."+src] = p.served[src]
	}
	if lookups := p.timing.Hits + p.timing.Misses + p.timing.Coalesced; lookups > 0 {
		v["simrun.timing_hit_ratio"] = float64(p.timing.Hits+p.timing.Coalesced) / float64(lookups)
	}
	if rootNs > 0 {
		v["other_share"] = float64(otherNs) / float64(rootNs)
	}

	// The layers of an op add up to its traced duration; compare that with
	// the untraced send → response time of the same op.
	var service, traced, inside []float64
	for id, root := range roots {
		rec, ok := untraced[id]
		if !ok {
			continue
		}
		service = append(service, rec.serviceMs())
		traced = append(traced, ms(root.dur()))
		inside = append(inside, ms(root.dur()-charge[root.ID]))
	}
	if len(service) > 0 {
		v["bench.trace_overhead_ms"] = mean(traced) - mean(service)
		v["bench.layer_sum_ratio"] = mean(traced) / mean(service)
		if http {
			v["server.overhead_ms"] = mean(service) - mean(inside)
		}
	}

	table := map[string]float64{}
	for l, t := range layer {
		table[l] = ms(t) / n
	}
	return v, table
}

// splitCapture divides a capture's charged time between layers in the
// proportions its calibration measured (see calibrateCapture). Without a
// complete calibration the whole capture stays in core.
func splitCapture(charged int64, cal []*span) (parts map[string]int64, warm, run *span) {
	warm, run = &span{}, &span{}
	var gen, direct, capture *span
	for _, c := range cal {
		switch c.Layer + "." + c.Name {
		case "workload.gen":
			gen = c
		case "cpu.warm":
			warm = c
		case "cpu.run":
			run = c
		case "core.direct":
			direct = c
		case "core.capture":
			capture = c
		}
	}
	if gen == nil || direct == nil || capture == nil || run.End == 0 {
		return map[string]int64{"core": charged}, warm, run
	}
	raw := map[string]int64{
		"workload":   gen.dur(),
		"cpu":        max(warm.dur()+run.dur()-gen.dur(), 0),
		"core":       max(direct.dur()-warm.dur()-run.dur(), 0),
		"usagetrace": max(capture.dur()-direct.dur(), 0),
	}
	var total int64
	for _, t := range raw {
		total += t
	}
	parts = map[string]int64{}
	for l, t := range raw {
		parts[l] = int64(float64(charged) * float64(t) / float64(max(total, 1)))
	}
	return parts, warm, run
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []*span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// linkTree snapshots a store directory with hard links. Artifacts are
// written by temp file and rename and never modified in place, so the
// snapshot keeps the populated state while the original store grows.
func linkTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		return os.Link(path, filepath.Join(dst, rel))
	})
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// readChars is the process's read-syscall byte count (rchar).
func readChars() int64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "rchar:"); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}
