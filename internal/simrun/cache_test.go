package simrun

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcg/internal/core"
	"dcg/internal/workload"
)

// fakeResult builds a distinguishable placeholder result.
func fakeResult(k Key) *core.Result {
	return &core.Result{Benchmark: k.Bench, Scheme: k.Scheme.String(), Cycles: k.Insts}
}

func TestDoMemoises(t *testing.T) {
	c := NewCache[Key, *core.Result](0)
	key := Key{Bench: "gzip", Scheme: core.SchemeDCG, Insts: 1000}
	var runs atomic.Int32
	fn := func(context.Context) (*core.Result, error) {
		runs.Add(1)
		return fakeResult(key), nil
	}
	res, out, err := c.Do(context.Background(), key, fn)
	if err != nil || out != OutcomeMiss || res == nil {
		t.Fatalf("first Do: res=%v outcome=%v err=%v", res, out, err)
	}
	res2, out, err := c.Do(context.Background(), key, fn)
	if err != nil || out != OutcomeHit {
		t.Fatalf("second Do: outcome=%v err=%v", out, err)
	}
	if res2 != res {
		t.Error("cache hit returned a different result pointer")
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("fn ran %d times, want 1", n)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Resident != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDoCoalescesConcurrentIdenticalRequests(t *testing.T) {
	const waiters = 64
	c := NewCache[Key, *core.Result](0)
	key := Key{Bench: "mcf", Scheme: core.SchemeDCG, Insts: 5000}

	var runs atomic.Int32
	release := make(chan struct{})
	started := make(chan struct{})
	fn := func(context.Context) (*core.Result, error) {
		runs.Add(1)
		close(started)
		<-release
		return fakeResult(key), nil
	}

	var wg sync.WaitGroup
	outcomes := make([]Outcome, waiters)
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, outcomes[i], errs[i] = c.Do(context.Background(), key, fn)
		}(i)
	}
	<-started
	// Give the remaining goroutines time to register as followers, then
	// let the single leader finish.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := runs.Load(); n != 1 {
		t.Fatalf("fn ran %d times for %d identical requests, want exactly 1", n, waiters)
	}
	var miss, coal, hit int
	for i := range outcomes {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		switch outcomes[i] {
		case OutcomeMiss:
			miss++
		case OutcomeCoalesced:
			coal++
		case OutcomeHit:
			hit++
		}
	}
	if miss != 1 {
		t.Errorf("misses = %d, want 1 (coalesced %d, hits %d)", miss, coal, hit)
	}
	if coal+hit != waiters-1 {
		t.Errorf("coalesced %d + hits %d != %d", coal, hit, waiters-1)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := NewCache[Key, *core.Result](0)
	key := Key{Bench: "gcc", Scheme: core.SchemeNone, Insts: 100}
	boom := errors.New("boom")
	calls := 0
	fn := func(context.Context) (*core.Result, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return fakeResult(key), nil
	}
	if _, _, err := c.Do(context.Background(), key, fn); !errors.Is(err, boom) {
		t.Fatalf("first Do err = %v, want boom", err)
	}
	if st := c.Stats(); st.Resident != 0 {
		t.Fatalf("failed run was cached: %+v", st)
	}
	res, out, err := c.Do(context.Background(), key, fn)
	if err != nil || res == nil || out != OutcomeMiss {
		t.Fatalf("retry: res=%v outcome=%v err=%v", res, out, err)
	}
}

func TestLRUEvictionBoundsResidency(t *testing.T) {
	c := NewCache[Key, *core.Result](1)
	for i := 0; i < 200; i++ {
		key := Key{Bench: fmt.Sprintf("b%03d", i), Scheme: core.SchemeDCG, Insts: uint64(i)}
		if _, _, err := c.Do(context.Background(), key, func(context.Context) (*core.Result, error) {
			return fakeResult(key), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Resident > 1 {
		t.Errorf("resident %d exceeds capacity bound 1", st.Resident)
	}
	if st.Evictions == 0 {
		t.Error("no evictions recorded after overflowing the capacity")
	}
}

// fill inserts keys into c in order through Do.
func fill(t *testing.T, c *Cache[TimingKey, int], keys []TimingKey) {
	t.Helper()
	for i, k := range keys {
		if _, out, err := c.Do(context.Background(), k, func(context.Context) (int, error) {
			return i, nil
		}); err != nil || out != OutcomeMiss {
			t.Fatalf("insert %v: outcome=%v err=%v", k, out, err)
		}
	}
}

// timingKeys returns n distinct timing keys, one per built-in benchmark
// name first (the suite's 16 timing keys at one budget), then more
// budgets of the same names.
func timingKeys(n int) []TimingKey {
	names := workload.Names()
	keys := make([]TimingKey, n)
	for i := range keys {
		keys[i] = TimingKey{Bench: names[i%len(names)], Insts: uint64(1000 + i/len(names))}
	}
	return keys
}

func TestLRUKeepsExactlyCapacity(t *testing.T) {
	c := NewCache[TimingKey, int](16)
	keys := timingKeys(17)
	fill(t, c, keys)
	if _, ok := c.Get(keys[0]); ok {
		t.Error("first key still resident after a 17th insert into a 16-entry cache")
	}
	for _, k := range keys[1:] {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%v evicted; want the last 16 of 17 resident", k)
		}
	}
	if st := c.Stats(); st.Resident != 16 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 16 resident and 1 eviction", st)
	}
}

func TestLRUTouchProtectsFromEviction(t *testing.T) {
	touches := map[string]func(c *Cache[TimingKey, int], k TimingKey) bool{
		"get": func(c *Cache[TimingKey, int], k TimingKey) bool {
			_, ok := c.Get(k)
			return ok
		},
		"do-hit": func(c *Cache[TimingKey, int], k TimingKey) bool {
			_, out, err := c.Do(context.Background(), k, func(context.Context) (int, error) {
				return -1, errors.New("a resident key must not run")
			})
			return err == nil && out == OutcomeHit
		},
	}
	for name, touch := range touches {
		t.Run(name, func(t *testing.T) {
			c := NewCache[TimingKey, int](4)
			keys := timingKeys(5)
			fill(t, c, keys[:4])
			if !touch(c, keys[0]) {
				t.Fatal("touch missed a resident key")
			}
			fill(t, c, keys[4:])
			if _, ok := c.Get(keys[0]); !ok {
				t.Error("the touched key was evicted")
			}
			if _, ok := c.Get(keys[1]); ok {
				t.Error("the least recently used key survived the insert")
			}
			for _, k := range keys[2:] {
				if _, ok := c.Get(k); !ok {
					t.Errorf("%v evicted; only the least recently used key should go", k)
				}
			}
		})
	}
}

func TestLRUEvictsNothingUnderCapacity(t *testing.T) {
	c := NewCache[TimingKey, int](1024)
	keys := timingKeys(1025)
	fill(t, c, keys[:1024])
	if st := c.Stats(); st.Evictions != 0 || st.Resident != 1024 {
		t.Fatalf("after 1024 distinct keys: stats = %+v, want 0 evictions and 1024 resident", st)
	}
	fill(t, c, keys[1024:])
	if st := c.Stats(); st.Evictions != 1 || st.Resident != 1024 {
		t.Errorf("after 1025 distinct keys: stats = %+v, want 1 eviction and 1024 resident", st)
	}
}

func TestCoalescedWaiterHonoursItsOwnContext(t *testing.T) {
	c := NewCache[Key, *core.Result](0)
	key := Key{Bench: "art", Scheme: core.SchemeDCG, Insts: 1}
	release := make(chan struct{})
	started := make(chan struct{})
	go c.Do(context.Background(), key, func(context.Context) (*core.Result, error) {
		close(started)
		<-release
		return fakeResult(key), nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, out, err := c.Do(ctx, key, nil) // fn unused: the run is in flight
	if !errors.Is(err, context.Canceled) || out != OutcomeCoalesced {
		t.Errorf("canceled waiter: outcome=%v err=%v", out, err)
	}
	close(release)
}

// TestWaiterOutlivesLeaderDeadline: a run that ends because its leader's
// context did fails the leader alone. A waiter whose own context is live
// leads a fresh run and gets its value, so fn runs twice. A run's own
// error still reaches its waiter, and fn runs once.
func TestWaiterOutlivesLeaderDeadline(t *testing.T) {
	for _, tc := range []struct {
		name string
		fail func(ctx context.Context) error
		runs int32
	}{
		{"leader deadline", func(ctx context.Context) error { <-ctx.Done(); return ctx.Err() }, 2},
		{"run error", func(context.Context) error { return errors.New("boom") }, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCache[Key, *core.Result](0)
			key := Key{Bench: "gcc", Scheme: core.SchemeNone, Insts: 300_000}
			var runs atomic.Int32
			joined := make(chan struct{})
			fn := func(ctx context.Context) (*core.Result, error) {
				if runs.Add(1) == 1 {
					<-joined
					return nil, tc.fail(ctx)
				}
				return fakeResult(key), nil
			}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			leader := make(chan error, 1)
			go func() {
				_, _, err := c.Do(ctx, key, fn)
				leader <- err
			}()
			for runs.Load() == 0 {
				time.Sleep(time.Millisecond)
			}
			type outcome struct {
				res *core.Result
				err error
			}
			waiter := make(chan outcome, 1)
			go func() {
				res, _, err := c.Do(context.Background(), key, fn)
				waiter <- outcome{res, err}
			}()
			for c.Stats().Coalesced == 0 {
				time.Sleep(time.Millisecond)
			}
			close(joined)

			lerr, w := <-leader, <-waiter
			if lerr == nil {
				t.Fatal("the leader's run succeeded")
			}
			if tc.runs == 2 && (w.err != nil || w.res == nil) {
				t.Errorf("waiter: res=%v err=%v, want the fresh run's value", w.res, w.err)
			}
			if tc.runs == 1 && !errors.Is(w.err, lerr) {
				t.Errorf("waiter: err=%v, want the run's %v", w.err, lerr)
			}
			if n := runs.Load(); n != tc.runs {
				t.Errorf("fn ran %d times, want %d", n, tc.runs)
			}
		})
	}
}

func TestConcurrentMixedKeys(t *testing.T) {
	c := NewCache[Key, *core.Result](8)
	keys := make([]Key, 24)
	for i := range keys {
		keys[i] = Key{Bench: fmt.Sprintf("k%d", i), Scheme: core.AllSchemes()[i%4], Insts: uint64(i)}
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := keys[(g*7+i)%len(keys)]
				res, _, err := c.Do(context.Background(), k, func(context.Context) (*core.Result, error) {
					return fakeResult(k), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if res.Benchmark != k.Bench {
					t.Errorf("got result for %q, want %q", res.Benchmark, k.Bench)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestRunExecutesRealSimulation(t *testing.T) {
	key := Key{Bench: "gzip", Scheme: core.SchemeDCG, Insts: 3000, Warmup: 1000}
	res, err := Run(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 || res.Saving <= 0 {
		t.Errorf("implausible result: committed=%d saving=%f", res.Committed, res.Saving)
	}
}

func TestRunHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Key{Bench: "gzip", Scheme: core.SchemeDCG, Insts: 100_000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestKeyMachineOverrides(t *testing.T) {
	if m := (Key{IntALU: 4}).Machine(); m.FU.IntALU != 4 {
		t.Errorf("IntALU override ignored: %d", m.FU.IntALU)
	}
	if m := (Key{Deep: true}).Machine(); m.Pipeline.Depth <= 8 {
		t.Errorf("deep machine depth = %d", m.Pipeline.Depth)
	}
}
