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

// familyExec is an Exec whose Full fakes a family pass: the key's Result
// with every other member of its timing family as a rider, each a fresh
// fakeResult. withRiders false fakes a Full that carries no riders.
func familyExec(withRiders bool) (*Exec, *atomic.Int32) {
	e := NewExec(0, 0)
	var fulls atomic.Int32
	e.Full = func(ctx context.Context, k Key) (*core.Result, error) {
		fulls.Add(1)
		r := fakeResult(k)
		if withRiders {
			for _, kind := range core.TimingFamily(k.Scheme) {
				if kind != k.Scheme {
					rk := k
					rk.Scheme = kind
					r.Riders = append(r.Riders, fakeResult(rk))
				}
			}
		}
		return r, nil
	}
	return e, &fulls
}

var plbFamily = []core.SchemeKind{core.SchemePLBExt, core.SchemeDCGPLB}

func familyKey(kind core.SchemeKind) Key {
	return Key{Bench: "gcc", Scheme: kind, Insts: 2000}
}

// servedOK checks a served Result is the key's and carries no riders.
func servedOK(t *testing.T, k Key, res *core.Result) {
	t.Helper()
	if res == nil || res.Scheme != k.Scheme.String() || res.Benchmark != k.Bench {
		t.Fatalf("%v: served %+v", k.Scheme, res)
	}
	if res.Riders != nil {
		t.Errorf("%v: served Result carries %d riders", k.Scheme, len(res.Riders))
	}
}

func TestExecFamilySequentialRequestsShareOnePass(t *testing.T) {
	for _, first := range plbFamily {
		e, fulls := familyExec(true)
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
			want := []Outcome{OutcomeMiss, OutcomeHit}[i]
			if out != want {
				t.Errorf("%v then %v: %v served %v, want %v", first, second, kind, out, want)
			}
		}
		if n := fulls.Load(); n != 1 {
			t.Errorf("%v first: Full ran %d times, want 1", first, n)
		}
		if _, out, _ := e.Do(context.Background(), familyKey(second)); out != OutcomeHit {
			t.Errorf("repeat of %v served %v, want a result-cache hit", second, out)
		}
	}
}

func TestExecFamilyConcurrentRequestsCoalesce(t *testing.T) {
	e, fulls := familyExec(true)
	started, release := make(chan struct{}), make(chan struct{})
	full := e.Full
	e.Full = func(ctx context.Context, k Key) (*core.Result, error) {
		close(started)
		<-release
		return full(ctx, k)
	}
	outs := make([]Outcome, len(plbFamily))
	var wg sync.WaitGroup
	do := func(i int) {
		defer wg.Done()
		k := familyKey(plbFamily[i])
		res, out, err := e.Do(context.Background(), k)
		if err != nil {
			t.Error(err)
			return
		}
		servedOK(t, k, res)
		outs[i] = out
	}
	wg.Add(2)
	go do(1)
	<-started
	go do(0)
	// The second request waits on the first's pass once the family
	// level counts it as coalesced.
	for e.families.Stats().Coalesced == 0 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := fulls.Load(); n != 1 {
		t.Errorf("Full ran %d times for two concurrent members, want 1", n)
	}
	if outs[1] != OutcomeMiss || outs[0] != OutcomeCoalesced {
		t.Errorf("outcomes: %v (ran the pass) %v, %v (waited) %v; want simulated and coalesced",
			plbFamily[1], outs[1], plbFamily[0], outs[0])
	}
}

// recordingTier is a PersistentTier that remembers what was put.
type recordingTier struct {
	mu   sync.Mutex
	puts map[Key]*core.Result
}

func (r *recordingTier) GetResult(context.Context, Key) (*core.Result, bool) { return nil, false }
func (r *recordingTier) GetTiming(context.Context, TimingKey) (*core.Timing, bool) {
	return nil, false
}
func (r *recordingTier) PutTiming(context.Context, TimingKey, *core.Timing) {}
func (r *recordingTier) PutResult(_ context.Context, k Key, res *core.Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.puts[k] = res
}

func TestExecFamilyStoresARiderOnlyWhenRequested(t *testing.T) {
	e, fulls := familyExec(true)
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
	if n := fulls.Load(); n != 1 {
		t.Errorf("Full ran %d times, want 1", n)
	}
}

func TestExecFamilyFullWithoutRidersRunsEachMember(t *testing.T) {
	e, fulls := familyExec(false)
	for _, kind := range plbFamily {
		k := familyKey(kind)
		res, out, err := e.Do(context.Background(), k)
		if err != nil {
			t.Fatal(err)
		}
		servedOK(t, k, res)
		if out != OutcomeMiss {
			t.Errorf("%v served %v, want simulated", kind, out)
		}
	}
	if n := fulls.Load(); n != 2 {
		t.Errorf("Full ran %d times for two members without riders, want 2", n)
	}
}

// TestExecFamilyPassMatchesSingleLaneRuns drives the production Full:
// one pass answers both members, each equal to its single-lane run.
func TestExecFamilyPassMatchesSingleLaneRuns(t *testing.T) {
	e := NewExec(0, 0)
	var fulls atomic.Int32
	full := e.Full
	e.Full = func(ctx context.Context, k Key) (*core.Result, error) {
		fulls.Add(1)
		return full(ctx, k)
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
			t.Errorf("%v from the family pass differs from its single-lane run", kind)
		}
	}
	if n := fulls.Load(); n != 1 {
		t.Errorf("Full ran %d times, want 1", n)
	}
}

// TestExecFamilyPassErrorsRetry: a failed pass reaches its caller and is
// not kept, so the next request for either member runs a pass again.
func TestExecFamilyPassErrorsRetry(t *testing.T) {
	e, fulls := familyExec(true)
	boom := errors.New("boom")
	full := e.Full
	e.Full = func(ctx context.Context, k Key) (*core.Result, error) {
		if fulls.Load() == 0 {
			fulls.Add(1)
			return nil, boom
		}
		return full(ctx, k)
	}
	if _, _, err := e.Do(context.Background(), familyKey(core.SchemePLBExt)); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	k := familyKey(core.SchemeDCGPLB)
	res, out, err := e.Do(context.Background(), k)
	if err != nil || out != OutcomeMiss {
		t.Fatalf("after a failed pass: outcome %v, err %v; want a fresh pass", out, err)
	}
	servedOK(t, k, res)
}
