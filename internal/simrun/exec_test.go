package simrun

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"dcg/internal/core"
	"dcg/internal/obs"
	"dcg/internal/usagetrace"
)

// countingExec wires fake hooks that count executions per layer.
func countingExec() (*Exec, *atomic.Int32, *atomic.Int32) {
	e := NewExec(0, 0)
	var captures, evals atomic.Int32
	e.Capture = func(ctx context.Context, k Key) (*core.Result, *core.Timing, error) {
		captures.Add(1)
		return fakeResult(k), &core.Timing{Benchmark: k.Bench}, nil
	}
	e.Evaluate = func(k Key, t *core.Timing) (*core.Result, error) {
		evals.Add(1)
		if t == nil {
			return nil, errors.New("evaluate called without a timing")
		}
		return fakeResult(k), nil
	}
	return e, &captures, &evals
}

func TestExecSharesOneTimingAcrossNeutralSchemes(t *testing.T) {
	e, captures, evals := countingExec()
	base := Key{Bench: "gzip", Insts: 1000}

	kinds := []core.SchemeKind{core.SchemeDCG, core.SchemeNone, core.SchemeOracle}
	for i, kind := range kinds {
		k := base
		k.Scheme = kind
		res, out, err := e.Do(context.Background(), k)
		if err != nil || res == nil {
			t.Fatalf("%v: res=%v err=%v", kind, res, err)
		}
		want := OutcomeReplayed
		if i == 0 {
			want = OutcomeMiss // first scheme executes the capture itself
		}
		if out != want {
			t.Errorf("%v: outcome %v, want %v", kind, out, want)
		}
	}
	if n := captures.Load(); n != 1 {
		t.Errorf("capture ran %d times for %d neutral schemes, want 1", n, len(kinds))
	}
	if n := evals.Load(); n != int32(len(kinds)-1) {
		t.Errorf("evaluate ran %d times, want %d", n, len(kinds)-1)
	}
	if st := e.TimingStats(); st.Misses != 1 || st.Hits != 2 {
		t.Errorf("timing stats = %+v, want 1 miss / 2 hits", st)
	}

	// Everything is now result-cached: repeats touch neither level.
	for _, kind := range kinds {
		k := base
		k.Scheme = kind
		_, out, err := e.Do(context.Background(), k)
		if err != nil || out != OutcomeHit {
			t.Errorf("%v repeat: outcome=%v err=%v, want hit", kind, out, err)
		}
	}
	if captures.Load() != 1 || evals.Load() != 2 {
		t.Error("repeat requests re-executed work")
	}
}

// TestExecServesEverySchemeWithoutFull: the production executor serves
// every registered scheme from captures, one per TimingKey — the
// unthrottled usage-only and latchvalue ones, and one under each PLB
// throttle.
func TestExecServesEverySchemeWithoutFull(t *testing.T) {
	e := NewExec(0, 0)
	var captures atomic.Int32
	capture := e.Capture
	e.Capture = func(ctx context.Context, k Key) (*core.Result, *core.Timing, error) {
		captures.Add(1)
		return capture(ctx, k)
	}
	keys := map[TimingKey]bool{}
	for _, kind := range core.AllSchemes() {
		k := Key{Bench: "mcf", Scheme: kind, Insts: 5_000, Warmup: 2_000}
		keys[k.TimingKey()] = true
		res, _, err := e.Do(context.Background(), k)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.Scheme != kind.String() {
			t.Errorf("%v served a %s Result", kind, res.Scheme)
		}
	}
	if n := captures.Load(); n != 4 || len(keys) != 4 {
		t.Errorf("%d captures over %d timing keys, want 4 of each", n, len(keys))
	}
}

func TestExecConcurrentNeutralSchemesOneCapture(t *testing.T) {
	e, captures, _ := countingExec()
	kinds := []core.SchemeKind{core.SchemeNone, core.SchemeDCG, core.SchemeOracle}
	var wg sync.WaitGroup
	for g := 0; g < 24; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := Key{Bench: "gcc", Scheme: kinds[g%len(kinds)], Insts: 2000}
			if _, _, err := e.Do(context.Background(), k); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if n := captures.Load(); n != 1 {
		t.Errorf("%d concurrent neutral requests executed %d captures, want 1", 24, n)
	}
}

func TestExecCaptureErrorsRetry(t *testing.T) {
	e, captures, _ := countingExec()
	boom := errors.New("boom")
	fail := true
	inner := e.Capture
	e.Capture = func(ctx context.Context, k Key) (*core.Result, *core.Timing, error) {
		if fail {
			captures.Add(1)
			return nil, nil, boom
		}
		return inner(ctx, k)
	}
	k := Key{Bench: "art", Scheme: core.SchemeDCG, Insts: 100}
	if _, _, err := e.Do(context.Background(), k); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	fail = false
	res, out, err := e.Do(context.Background(), k)
	if err != nil || res == nil || out != OutcomeMiss {
		t.Fatalf("retry after failure: res=%v outcome=%v err=%v", res, out, err)
	}
}

// TestExecSharesOneDecodeAcrossNeutralSchemes drives the production hooks
// end to end and asserts the tentpole property at the executor level: all
// timing-neutral schemes riding one cached capture — coalesced requests,
// batch items, sweep followers all land here — share a single packed
// view. The capture builds it while recording, so no evaluation parses
// the trace: the leader's and every follower's evaluation reuses it.
func TestExecSharesOneDecodeAcrossNeutralSchemes(t *testing.T) {
	e := NewExec(0, 0)
	base := Key{Bench: "swim", Insts: 15_000, Warmup: 10_000}
	kinds := []core.SchemeKind{core.SchemeNone, core.SchemeDCG, core.SchemeOracle}

	decodes0 := usagetrace.Decodes()
	reuses0 := usagetrace.DecodeReuses()
	for _, kind := range kinds {
		k := base
		k.Scheme = kind
		if _, _, err := e.Do(context.Background(), k); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
	if got := usagetrace.Decodes() - decodes0; got != 0 {
		t.Errorf("%d neutral schemes through the executor decoded the trace %d times, want 0", len(kinds), got)
	}
	if got := usagetrace.DecodeReuses() - reuses0; got != uint64(len(kinds)) {
		t.Errorf("decode reuses = %d, want %d (the leader and each follower)", got, len(kinds))
	}
}

// TestExecReplaysThroughPackedKernel pins the routing at the executor
// level: every evaluation of a timing-neutral scheme, the value-dependent
// ones included, rides the bit-packed replay kernel — the leader's on
// the view its capture built, each follower's on the cached one.
func TestExecReplaysThroughPackedKernel(t *testing.T) {
	e := NewExec(0, 0)
	base := Key{Bench: "art", Insts: 15_000, Warmup: 10_000}
	kinds := []core.SchemeKind{core.SchemeNone, core.SchemeDCG, core.SchemeOracle}

	packed0 := core.PackedReplaySchemes()
	for _, kind := range kinds {
		k := base
		k.Scheme = kind
		if _, _, err := e.Do(context.Background(), k); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
	// The capture only records: the leader and each follower are one
	// packed evaluation each.
	if got := core.PackedReplaySchemes() - packed0; got != uint64(len(kinds)) {
		t.Errorf("packed replay served %d schemes, want %d (leader and followers)", got, len(kinds))
	}

	// The value-dependent family shares one latchvalue capture: ddcg
	// leads it, and both evaluate on the kernel.
	packed0 = core.PackedReplaySchemes()
	for _, kind := range []core.SchemeKind{core.SchemeDDCG, core.SchemeDCGDDCG} {
		k := base
		k.Scheme = kind
		if _, _, err := e.Do(context.Background(), k); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
	if got := core.PackedReplaySchemes() - packed0; got != 2 {
		t.Errorf("packed replay served %d value-dependent schemes, want 2 (leader and follower)", got)
	}
}

// TestExecReplayMatchesFullRun drives the production hooks end to end: a
// replayed evaluation through the two-level executor must be bit-identical
// to an independent full simulation of the same key.
func TestExecReplayMatchesFullRun(t *testing.T) {
	e := NewExec(0, 0)
	base := Key{Bench: "gzip", Insts: 20_000, Warmup: 10_000}

	// Prime the timing level with the baseline scheme...
	kNone := base
	kNone.Scheme = core.SchemeNone
	if _, out, err := e.Do(context.Background(), kNone); err != nil || out != OutcomeMiss {
		t.Fatalf("prime: outcome=%v err=%v", out, err)
	}
	// ...then DCG must come from replay, identical to a direct full run.
	kDCG := base
	kDCG.Scheme = core.SchemeDCG
	viaReplay, out, err := e.Do(context.Background(), kDCG)
	if err != nil {
		t.Fatal(err)
	}
	if out != OutcomeReplayed {
		t.Fatalf("dcg outcome = %v, want replayed", out)
	}
	direct, err := Run(context.Background(), kDCG)
	if err != nil {
		t.Fatal(err)
	}
	if viaReplay.Cycles != direct.Cycles || viaReplay.AvgPower != direct.AvgPower ||
		viaReplay.Saving != direct.Saving || viaReplay.Energy != direct.Energy {
		t.Errorf("replayed result differs from direct run:\nreplay: cycles=%d power=%v saving=%v\ndirect: cycles=%d power=%v saving=%v",
			viaReplay.Cycles, viaReplay.AvgPower, viaReplay.Saving,
			direct.Cycles, direct.AvgPower, direct.Saving)
	}
	if st := e.TimingStats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("timing stats = %+v, want 1 miss / 1 hit", st)
	}
}

// timingTier is a PersistentTier that stores nothing and remembers the
// timings it was asked to put.
type timingTier struct {
	mu   sync.Mutex
	puts []*core.Timing
}

func (*timingTier) GetResult(context.Context, Key) (*core.Result, bool)       { return nil, false }
func (*timingTier) PutResult(context.Context, Key, *core.Result)              {}
func (*timingTier) GetTiming(context.Context, TimingKey) (*core.Timing, bool) { return nil, false }
func (r *timingTier) PutTiming(_ context.Context, _ TimingKey, t *core.Timing) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.puts = append(r.puts, t)
}

// TestCaptureKeepsBytesOnlyForAStore: an Exec whose Store is nil when it
// captures keeps no trace bytes, and its sim.capture and trace.decode
// spans carry no trace_bytes attribute; once a store is attached, a
// capture keeps its bytes, hands them to the store, and the span reports
// their size.
func TestCaptureKeepsBytesOnlyForAStore(t *testing.T) {
	tracer := obs.NewTracer(256)
	e := NewExec(0, 0)
	var captured []*core.Timing
	e.Capture = func(ctx context.Context, k Key) (*core.Result, *core.Timing, error) {
		r, tm, err := Capture(ctx, k)
		if err == nil {
			captured = append(captured, tm)
		}
		return r, tm, err
	}
	traceBytes := func(trace obs.TraceID, span string) (string, bool) {
		for _, s := range tracer.Spans(obs.SpanFilter{Trace: trace}) {
			if s.Name != span {
				continue
			}
			for _, a := range s.Attrs {
				if a.Key == "trace_bytes" {
					return a.Value, true
				}
			}
			return "", false
		}
		t.Fatalf("no %s span", span)
		return "", false
	}
	do := func(k Key) obs.TraceID {
		ctx, root := tracer.StartRoot(context.Background(), "test")
		defer root.Finish()
		if _, _, err := e.Do(ctx, k); err != nil {
			t.Fatal(err)
		}
		return root.TraceID
	}

	k := Key{Bench: "gzip", Scheme: core.SchemeDCG, Insts: 5_000, Warmup: 1_000}
	tr := do(k)
	if len(captured) != 1 || captured[0].Trace.SizeBytes() != 0 {
		t.Fatalf("a store-less capture kept %d bytes", captured[0].Trace.SizeBytes())
	}
	if v, ok := traceBytes(tr, "sim.capture"); ok {
		t.Errorf("a store-less sim.capture span reports trace_bytes=%s", v)
	}
	k.Scheme = core.SchemeNone
	if v, ok := traceBytes(do(k), "trace.decode"); ok {
		t.Errorf("the replay of a store-less capture reports trace_bytes=%s", v)
	}

	tier := &timingTier{}
	e.Store = tier
	k = Key{Bench: "mcf", Scheme: core.SchemeDCG, Insts: 5_000, Warmup: 1_000}
	tr = do(k)
	size := captured[1].Trace.SizeBytes()
	if size == 0 || len(tier.puts) != 1 || tier.puts[0] != captured[1] {
		t.Fatalf("a capture with a store kept %d bytes and made %d puts", size, len(tier.puts))
	}
	if v, ok := traceBytes(tr, "sim.capture"); !ok || v != strconv.Itoa(size) {
		t.Errorf("sim.capture trace_bytes = %q (present %v), want %d", v, ok, size)
	}
}
