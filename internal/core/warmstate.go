package core

import (
	"math"
	"sync"
	"sync/atomic"

	"dcg/internal/bpred"
	"dcg/internal/config"
	"dcg/internal/mem"
	"dcg/internal/workload"
)

// The warm-state cache: a built-in benchmark's functional warm-up
// (Core.Warm over its first Warmup instructions) is run once per key, and
// every later run with that key restores a copy of what it left behind.

// warmKey names everything Core.Warm's outcome depends on: the benchmark's
// instruction stream, its length, and the configurations the caches and
// the predictor are built from (IL1 also fixes the fetch-line size Warm
// steps by). They are compared whole. The rest of the machine never
// reaches the warmed state, so machines that differ only there share
// entries; PerfectBPred only moves counters that Warm clears.
type warmKey struct {
	bench        string
	warmup       uint64
	il1, dl1, l2 config.CacheConfig
	bpred        config.BPredConfig
}

func warmKeyFor(bench string, warmup uint64, m config.Config) warmKey {
	return warmKey{bench: bench, warmup: warmup, il1: m.IL1, dl1: m.DL1, l2: m.L2, bpred: m.BPred}
}

// warmState is one entry: deep copies of the memory system, the predictor
// and the generator as a completed warm-up left them. Entries are never
// mutated after insertion, so restores share them under no lock.
type warmState struct {
	hier *mem.Hierarchy
	pred *bpred.Predictor
	gen  *workload.Generator
}

// maxWarmStates bounds the cache. An entry is 1.2–1.4 MB on the Table 1
// machine, most of it the 2 MB L2's 768 KB line array; 32 entries hold
// the Table 1 and deep machines' states for all 16 benchmarks.
const maxWarmStates = 32

type warmSlot struct {
	state *warmState
	used  uint64 // LRU stamp
}

var warmStates struct {
	mu    sync.Mutex
	slots map[warmKey]warmSlot
	clock uint64

	hits, misses atomic.Uint64
}

// WarmStateStats reports the warm-state cache's lookups since process
// start: hits restored a snapshot, misses ran the functional warm-up.
// Runs with no warm-up, or of caller-supplied streams, are neither.
func WarmStateStats() (hits, misses uint64) {
	return warmStates.hits.Load(), warmStates.misses.Load()
}

// lookupWarmState returns the entry for k, or nil, counting the lookup.
func lookupWarmState(k warmKey) *warmState {
	warmStates.mu.Lock()
	defer warmStates.mu.Unlock()
	slot, ok := warmStates.slots[k]
	if !ok {
		warmStates.misses.Add(1)
		return nil
	}
	warmStates.hits.Add(1)
	warmStates.clock++
	slot.used = warmStates.clock
	warmStates.slots[k] = slot
	return slot.state
}

// insertWarmState adds an entry for k unless one is already there (of
// concurrent misses on one key, the first insert wins), evicting the
// least recently used entry when the cache is full.
func insertWarmState(k warmKey, st *warmState) {
	warmStates.mu.Lock()
	defer warmStates.mu.Unlock()
	if _, ok := warmStates.slots[k]; ok {
		return
	}
	if warmStates.slots == nil {
		warmStates.slots = make(map[warmKey]warmSlot, maxWarmStates)
	}
	if len(warmStates.slots) >= maxWarmStates {
		var oldest warmKey
		oldestUsed := uint64(math.MaxUint64)
		for key, slot := range warmStates.slots {
			if slot.used < oldestUsed {
				oldest, oldestUsed = key, slot.used
			}
		}
		delete(warmStates.slots, oldest)
	}
	warmStates.clock++
	warmStates.slots[k] = warmSlot{state: st, used: warmStates.clock}
}

// resetWarmStates empties the cache (the counters keep counting), so a
// test can compare a freshly warmed run with a restored one.
func resetWarmStates() {
	warmStates.mu.Lock()
	defer warmStates.mu.Unlock()
	warmStates.slots = nil
}
