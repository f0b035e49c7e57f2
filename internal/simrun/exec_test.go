package simrun

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"dcg/internal/core"
	"dcg/internal/usagetrace"
)

// countingExec wires fake hooks that count executions per layer.
func countingExec() (*Exec, *atomic.Int32, *atomic.Int32, *atomic.Int32) {
	e := NewExec(0, 0)
	var fulls, captures, evals atomic.Int32
	e.Full = func(ctx context.Context, k Key) (*core.Result, error) {
		fulls.Add(1)
		return fakeResult(k), nil
	}
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
	return e, &fulls, &captures, &evals
}

func TestExecSharesOneTimingAcrossNeutralSchemes(t *testing.T) {
	e, fulls, captures, evals := countingExec()
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
	if n := fulls.Load(); n != 0 {
		t.Errorf("full simulation ran %d times, want 0", n)
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

func TestExecPLBBypassesTimingCache(t *testing.T) {
	e, fulls, captures, _ := countingExec()
	for _, kind := range []core.SchemeKind{core.SchemePLBOrig, core.SchemePLBExt} {
		k := Key{Bench: "mcf", Scheme: kind, Insts: 500}
		_, out, err := e.Do(context.Background(), k)
		if err != nil || out != OutcomeMiss {
			t.Fatalf("%v: outcome=%v err=%v", kind, out, err)
		}
	}
	if n := fulls.Load(); n != 2 {
		t.Errorf("full ran %d times, want 2", n)
	}
	if n := captures.Load(); n != 0 {
		t.Errorf("PLB triggered %d captures, want 0", n)
	}
	if st := e.TimingStats(); st.Misses != 0 {
		t.Errorf("PLB polluted the timing cache: %+v", st)
	}
}

func TestExecConcurrentNeutralSchemesOneCapture(t *testing.T) {
	e, fulls, captures, _ := countingExec()
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
	if fulls.Load() != 0 {
		t.Error("a neutral scheme fell through to the full simulator")
	}
}

func TestExecCaptureErrorsRetry(t *testing.T) {
	e, _, captures, _ := countingExec()
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

func TestSingleLevelExecUsesRunnerOnly(t *testing.T) {
	var runs atomic.Int32
	e := NewSingleLevelExec(0, func(ctx context.Context, k Key) (*core.Result, error) {
		runs.Add(1)
		return fakeResult(k), nil
	})
	k := Key{Bench: "gzip", Scheme: core.SchemeDCG, Insts: 100}
	if _, out, err := e.Do(context.Background(), k); err != nil || out != OutcomeMiss {
		t.Fatalf("first: outcome=%v err=%v", out, err)
	}
	if _, out, err := e.Do(context.Background(), k); err != nil || out != OutcomeHit {
		t.Fatalf("second: outcome=%v err=%v", out, err)
	}
	if runs.Load() != 1 {
		t.Errorf("runner ran %d times, want 1", runs.Load())
	}
	if st := e.TimingStats(); st != (Stats{}) {
		t.Errorf("single-level exec reported timing stats %+v", st)
	}
}

// TestExecSharesOneDecodeAcrossNeutralSchemes drives the production hooks
// end to end and asserts the tentpole property at the executor level: all
// timing-neutral schemes riding one cached capture — coalesced requests,
// batch items, sweep followers all land here — share a single trace
// decode (its packed view). The leader's result rides the capture run itself (no
// decode); the first follower decodes; every later follower reuses.
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
	if got := usagetrace.Decodes() - decodes0; got != 1 {
		t.Errorf("%d neutral schemes through the executor decoded the trace %d times, want 1", len(kinds), got)
	}
	if got := usagetrace.DecodeReuses() - reuses0; got != uint64(len(kinds)-2) {
		t.Errorf("decode reuses = %d, want %d (followers after the first)", got, len(kinds)-2)
	}
}

// TestExecReplaysThroughPackedKernel pins the routing at the executor
// level: follower evaluations of timing-neutral schemes ride the
// bit-packed replay kernel, not the scalar fused engine.
func TestExecReplaysThroughPackedKernel(t *testing.T) {
	e := NewExec(0, 0)
	base := Key{Bench: "art", Insts: 15_000, Warmup: 10_000}
	kinds := []core.SchemeKind{core.SchemeNone, core.SchemeDCG, core.SchemeOracle}

	packed0 := core.PackedReplaySchemes()
	fallback0 := core.PackedReplayFallbacks()
	fused0 := usagetrace.FusedSchemes()
	for _, kind := range kinds {
		k := base
		k.Scheme = kind
		if _, _, err := e.Do(context.Background(), k); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
	// The leader rides the capture run; each follower is one packed
	// replay evaluation.
	if got := core.PackedReplaySchemes() - packed0; got != uint64(len(kinds)-1) {
		t.Errorf("packed replay served %d schemes, want %d (followers)", got, len(kinds)-1)
	}
	if got := core.PackedReplayFallbacks() - fallback0; got != 0 {
		t.Errorf("packed replay recorded %d fallbacks, want 0", got)
	}
	if got := usagetrace.FusedSchemes() - fused0; got != 0 {
		t.Errorf("%d schemes fell through to the scalar fused engine, want 0", got)
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
