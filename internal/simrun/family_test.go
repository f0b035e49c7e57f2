package simrun

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dcg/internal/core"
)

// plbFamily are the schemes that share plb-ext's throttled capture.
var plbFamily = []core.SchemeKind{core.SchemePLBExt, core.SchemeDCGPLB}

func familyKey(kind core.SchemeKind) Key {
	return Key{Bench: "gcc", Scheme: kind, Insts: 2000}
}

// servedOK checks a served Result is the key's.
func servedOK(t *testing.T, k Key, res *core.Result) {
	t.Helper()
	if res == nil || res.Scheme != k.Scheme.String() || res.Benchmark != k.Bench {
		t.Fatalf("%v: served %+v", k.Scheme, res)
	}
}

func TestExecFamilySequentialRequestsShareOnePass(t *testing.T) {
	if a, b := familyKey(plbFamily[0]).TimingKey(), familyKey(plbFamily[1]).TimingKey(); a != b || a.Throttle != core.SchemePLBExt {
		t.Fatalf("family timing keys %+v and %+v, want one key under plb-ext's throttle", a, b)
	}
	for _, first := range plbFamily {
		e, captures, _ := countingExec()
		second := plbFamily[0]
		if first == second {
			second = plbFamily[1]
		}
		for i, kind := range []core.SchemeKind{first, second} {
			k := familyKey(kind)
			res, out, err := e.Do(context.Background(), k)
			if err != nil {
				t.Fatal(err)
			}
			servedOK(t, k, res)
			want := []Outcome{OutcomeMiss, OutcomeReplayed}[i]
			if out != want {
				t.Errorf("%v then %v: %v served %v, want %v", first, second, kind, out, want)
			}
		}
		if n := captures.Load(); n != 1 {
			t.Errorf("%v first: %d captures, want 1", first, n)
		}
		if _, out, _ := e.Do(context.Background(), familyKey(second)); out != OutcomeHit {
			t.Errorf("repeat of %v served %v, want a result-cache hit", second, out)
		}
	}
}

// TestExecFamilyConcurrentRequestsCoalesce: a burst of plb-ext and
// dcg+plb requests for one key runs exactly one capture; one request is
// simulated and every other one coalesced or replayed.
func TestExecFamilyConcurrentRequestsCoalesce(t *testing.T) {
	e, captures, _ := countingExec()
	started, release := make(chan struct{}), make(chan struct{})
	capture := e.Capture
	e.Capture = func(ctx context.Context, k Key) (*core.Result, *core.Timing, error) {
		close(started)
		<-release
		return capture(ctx, k)
	}
	const burst = 8
	outs := make([]Outcome, burst)
	var wg sync.WaitGroup
	do := func(i int) {
		defer wg.Done()
		k := familyKey(plbFamily[i%len(plbFamily)])
		res, out, err := e.Do(context.Background(), k)
		if err != nil {
			t.Error(err)
			return
		}
		servedOK(t, k, res)
		outs[i] = out
	}
	wg.Add(burst)
	go do(0)
	<-started
	for i := 1; i < burst; i++ {
		go do(i)
	}
	// Every other request waits, on the capture at the timing level or on
	// a request for its own key at the result level.
	for e.timings.Stats().Coalesced+e.results.Stats().Coalesced < burst-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := captures.Load(); n != 1 {
		t.Errorf("%d concurrent family requests ran %d captures, want 1", burst, n)
	}
	simulated := 0
	for i, out := range outs {
		switch out {
		case OutcomeMiss:
			simulated++
		case OutcomeCoalesced, OutcomeReplayed:
		default:
			t.Errorf("request %d (%v) served %v", i, plbFamily[i%len(plbFamily)], out)
		}
	}
	if simulated != 1 {
		t.Errorf("%d requests served simulated, want 1 (outcomes %v)", simulated, outs)
	}
}

// recordingTier is a PersistentTier that remembers what was put and
// counts the timing calls.
type recordingTier struct {
	mu                     sync.Mutex
	puts                   map[Key]*core.Result
	timingGets, timingPuts int
}

func (r *recordingTier) GetResult(context.Context, Key) (*core.Result, bool) { return nil, false }
func (r *recordingTier) GetTiming(context.Context, TimingKey) (*core.Timing, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.timingGets++
	return nil, false
}
func (r *recordingTier) PutTiming(context.Context, TimingKey, *core.Timing) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.timingPuts++
}
func (r *recordingTier) PutResult(_ context.Context, k Key, res *core.Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.puts[k] = res
}

// TestExecFamilyStoresARiderOnlyWhenRequested: a throttled key never
// reaches GetTiming or PutTiming, and each member's Result is stored when
// it is requested, not before; an unthrottled key reaches both.
func TestExecFamilyStoresARiderOnlyWhenRequested(t *testing.T) {
	e, captures, _ := countingExec()
	tier := &recordingTier{puts: map[Key]*core.Result{}}
	e.Store = tier
	lead, rider := familyKey(core.SchemePLBExt), familyKey(core.SchemeDCGPLB)
	if _, _, err := e.Do(context.Background(), lead); err != nil {
		t.Fatal(err)
	}
	if len(tier.puts) != 1 || tier.puts[lead] == nil {
		t.Fatalf("after one request the store holds %v, want only %v", tier.puts, lead.Scheme)
	}
	if _, _, err := e.Do(context.Background(), rider); err != nil {
		t.Fatal(err)
	}
	if len(tier.puts) != 2 || tier.puts[rider] == nil {
		t.Fatalf("after the rider's request the store holds %d results, want both", len(tier.puts))
	}
	for k, res := range tier.puts {
		servedOK(t, k, res)
	}
	if n := captures.Load(); n != 1 {
		t.Errorf("%d captures, want 1", n)
	}
	if tier.timingGets != 0 || tier.timingPuts != 0 {
		t.Errorf("a throttled key reached the store's timing tier: %d gets, %d puts", tier.timingGets, tier.timingPuts)
	}
	if _, _, err := e.Do(context.Background(), familyKey(core.SchemeDCG)); err != nil {
		t.Fatal(err)
	}
	if tier.timingGets != 1 || tier.timingPuts != 1 {
		t.Errorf("an unthrottled key: %d timing gets, %d puts; want 1 each", tier.timingGets, tier.timingPuts)
	}
}

// TestExecFamilyPassMatchesSingleLaneRuns drives the production Capture:
// one throttled capture answers both members, each equal to its
// single-lane live run.
func TestExecFamilyPassMatchesSingleLaneRuns(t *testing.T) {
	e := NewExec(0, 0)
	var captures atomic.Int32
	capture := e.Capture
	e.Capture = func(ctx context.Context, k Key) (*core.Result, *core.Timing, error) {
		captures.Add(1)
		return capture(ctx, k)
	}
	for _, kind := range plbFamily {
		k := Key{Bench: "mcf", Scheme: kind, Insts: 20_000, Warmup: 10_000}
		res, _, err := e.Do(context.Background(), k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := simulatorFor(k.Machine(), k.Warmup).RunBenchmarkContext(context.Background(), k.Bench, kind, k.Insts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Errorf("%v from the throttled capture differs from its single-lane run", kind)
		}
	}
	if n := captures.Load(); n != 1 {
		t.Errorf("%d captures, want 1", n)
	}
}

// TestExecFamilyPassErrorsRetry: a failed capture reaches its caller and
// is not kept, so the next request for either member captures again.
func TestExecFamilyPassErrorsRetry(t *testing.T) {
	e, captures, _ := countingExec()
	boom := errors.New("boom")
	capture := e.Capture
	e.Capture = func(ctx context.Context, k Key) (*core.Result, *core.Timing, error) {
		if captures.Load() == 0 {
			captures.Add(1)
			return nil, nil, boom
		}
		return capture(ctx, k)
	}
	if _, _, err := e.Do(context.Background(), familyKey(core.SchemePLBExt)); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	k := familyKey(core.SchemeDCGPLB)
	res, out, err := e.Do(context.Background(), k)
	if err != nil || out != OutcomeMiss {
		t.Fatalf("after a failed capture: outcome %v, err %v; want a fresh capture", out, err)
	}
	servedOK(t, k, res)
	if n := captures.Load(); n != 2 {
		t.Errorf("%d captures, want 2", n)
	}
}
