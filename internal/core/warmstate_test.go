package core

import (
	"context"
	"errors"
	"maps"
	"sync"
	"testing"

	"dcg/internal/config"
	"dcg/internal/cpu"
)

// hasWarmState reports whether the cache holds an entry for k, without
// counting a lookup.
func hasWarmState(k warmKey) bool {
	warmStates.mu.Lock()
	defer warmStates.mu.Unlock()
	_, ok := warmStates.slots[k]
	return ok
}

// TestWarmRestoreMatchesFresh holds a restored run bit-identical to a
// freshly warmed one on every fingerprint machine and benchmark: the dcg
// capture's statistics and trace bytes, and the plb-ext run's statistics
// and mode cycles, hash alike. Machines whose caches and predictor match
// Table 1's restore the entry a Table 1 warm-up filled; the others fill
// their own.
func TestWarmRestoreMatchesFresh(t *testing.T) {
	defer resetWarmStates()
	const warmup = 5_000
	// ownEntry lists the variants whose warmed state differs from Table
	// 1's: deep's predictor has a longer mispredict penalty, and
	// alu4-dport1 changes the D-cache's port count.
	ownEntry := map[string]bool{"deep": true, "alu4-dport1": true}
	table1 := NewSimulator(config.Default())
	table1.Warmup = warmup
	for _, m := range fingerprintMachines {
		sim := NewSimulator(m.cfg())
		sim.Warmup = warmup
		for _, bench := range fingerprintBenches {
			label := m.name + "/" + bench
			shared := warmKeyFor(bench, warmup, m.cfg()) == warmKeyFor(bench, warmup, config.Default())
			if shared == ownEntry[m.name] {
				t.Fatalf("%s: shares Table 1's warm state = %v, want %v", label, shared, !ownEntry[m.name])
			}

			resetWarmStates()
			freshDCG := dcgFingerprints(t, sim, m.name, bench)
			resetWarmStates()
			freshPLB := plbFingerprint(t, sim, m.name, bench)

			// Fill the cache through Table 1 first, then through the
			// variant, which inserts only when its key is its own.
			resetWarmStates()
			prime(t, table1, bench)
			prime(t, sim, bench)
			hits0, misses0 := WarmStateStats()
			if got := dcgFingerprints(t, sim, m.name, bench); !maps.Equal(got, freshDCG) {
				t.Errorf("%s/dcg: restored %#x, fresh %#x", label, got, freshDCG)
			}
			if got := plbFingerprint(t, sim, m.name, bench); got != freshPLB {
				t.Errorf("%s/plb-ext: restored %#016x, fresh %#016x", label, got, freshPLB)
			}
			if hits, misses := WarmStateStats(); hits-hits0 != 2 || misses != misses0 {
				t.Errorf("%s: restored runs took %d hits, %d misses; want 2 and 0", label, hits-hits0, misses-misses0)
			}
		}
	}
}

// prime brings a core to the start of bench's measured region on sim, the
// way a run does, filling the warm-state cache on a miss.
func prime(tb testing.TB, sim *Simulator, bench string) {
	tb.Helper()
	src, prepare, err := sim.benchSources(bench, 1)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := cpu.New(sim.Machine(), src)
	if err != nil {
		tb.Fatal(err)
	}
	prepare(c)
}

// cancelAfter is a context whose Err turns to context.Canceled after n
// polls, so a run can be stopped at a chosen point of its warm-up.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

func TestCanceledWarmupLeavesNoEntry(t *testing.T) {
	defer resetWarmStates()
	resetWarmStates()
	sim := NewSimulator(config.Default())
	sim.Warmup = 50_000
	key := warmKeyFor("gcc", sim.Warmup, sim.Machine())

	// Core.Warm polls every 4096 instructions: three polls pass, so the
	// warm-up stops a quarter of the way in.
	ctx := &cancelAfter{Context: context.Background(), n: 3}
	if _, _, err := sim.RunAndCapture(ctx, "gcc", SchemeDCG, 10_000); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: err = %v, want context.Canceled", err)
	}
	if hasWarmState(key) {
		t.Fatal("a warm-up cut short was cached")
	}

	_, misses0 := WarmStateStats()
	after := dcgFingerprints(t, sim, "table1", "gcc")
	if _, misses := WarmStateStats(); misses != misses0+1 {
		t.Errorf("run after the canceled one took %d misses, want 1", misses-misses0)
	}
	if !hasWarmState(key) {
		t.Fatal("a completed warm-up was not cached")
	}
	resetWarmStates()
	fresh := dcgFingerprints(t, sim, "table1", "gcc")
	if !maps.Equal(after, fresh) {
		t.Errorf("run after a canceled warm-up %#x, fresh run %#x", after, fresh)
	}
}

// TestWarmStateMissesOncePerKey runs every benchmark twice on two machines
// with different warmed states: each of the 32 keys misses exactly once.
func TestWarmStateMissesOncePerKey(t *testing.T) {
	defer resetWarmStates()
	resetWarmStates()
	hits0, misses0 := WarmStateStats()
	keys := 0
	for _, machine := range []config.Config{config.Default(), config.Deep()} {
		sim := NewSimulator(machine)
		sim.Warmup = 2_000
		for _, bench := range Benchmarks() {
			keys++
			for pass := 0; pass < 2; pass++ {
				if _, err := sim.RunBenchmark(bench, SchemeNone, 1_000); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	hits, misses := WarmStateStats()
	if misses-misses0 != uint64(keys) || hits-hits0 != uint64(keys) {
		t.Errorf("%d keys run twice took %d misses and %d hits, want %d of each",
			keys, misses-misses0, hits-hits0, keys)
	}
}

// TestWarmStateConcurrentRuns starts runs of one key from an empty cache
// on several goroutines at once: concurrent misses may each warm, later
// runs restore, and every run gets the same result.
func TestWarmStateConcurrentRuns(t *testing.T) {
	defer resetWarmStates()
	resetWarmStates()
	sim := NewSimulator(config.Default())
	sim.Warmup = 5_000
	want, err := sim.RunBenchmark("gcc", SchemeDCG, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	resetWarmStates()
	const runs = 6
	results := make([]*Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = sim.RunBenchmark("gcc", SchemeDCG, 2_000)
		}()
	}
	wg.Wait()
	for i := range runs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i].CPUStats != want.CPUStats || results[i].Energy != want.Energy {
			t.Errorf("concurrent run %d differs from a sequential one", i)
		}
	}
}

func TestWarmStateEvictsLeastRecentlyUsed(t *testing.T) {
	defer resetWarmStates()
	resetWarmStates()
	key := func(i int) warmKey { return warmKey{bench: "b", warmup: uint64(i + 1)} }
	for i := 0; i < maxWarmStates; i++ {
		insertWarmState(key(i), &warmState{})
	}
	lookupWarmState(key(0)) // key 1 is now the least recently used
	insertWarmState(key(maxWarmStates), &warmState{})
	if hasWarmState(key(1)) {
		t.Error("least recently used entry survived an insert into a full cache")
	}
	for _, i := range []int{0, 2, maxWarmStates} {
		if !hasWarmState(key(i)) {
			t.Errorf("entry %d evicted", i)
		}
	}

	// The first insert of a key wins.
	first := &warmState{}
	insertWarmState(key(100), first)
	insertWarmState(key(100), &warmState{})
	if got := lookupWarmState(key(100)); got != first {
		t.Error("a second insert replaced the first")
	}
}

func TestNoWarmupBypassesCache(t *testing.T) {
	defer resetWarmStates()
	resetWarmStates()
	sim := NewSimulator(config.Default())
	sim.Warmup = 0
	hits0, misses0 := WarmStateStats()
	for pass := 0; pass < 2; pass++ {
		if _, err := sim.RunBenchmark("gzip", SchemeNone, 2_000); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := WarmStateStats(); hits != hits0 || misses != misses0 {
		t.Errorf("Warmup 0 took %d hits and %d misses", hits-hits0, misses-misses0)
	}
	if hasWarmState(warmKeyFor("gzip", 0, sim.Machine())) {
		t.Error("Warmup 0 inserted an entry")
	}
}

// BenchmarkWarmState times what a run pays before its first measured
// cycle, on the Table 1 machine at the default warm-up: building the core,
// then on a miss the functional warm-up plus the snapshot it inserts (a
// benchmark's first request), or on a hit the restore (every later one).
func BenchmarkWarmState(b *testing.B) {
	sim := NewSimulator(config.Default())
	b.Run("miss", func(b *testing.B) {
		defer resetWarmStates()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			resetWarmStates()
			prime(b, sim, "gcc")
		}
	})
	b.Run("hit", func(b *testing.B) {
		defer resetWarmStates()
		prime(b, sim, "gcc")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			prime(b, sim, "gcc")
		}
	})
}
