package simrun

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// Outcome classifies how a Do call was served.
type Outcome int

const (
	// OutcomeMiss: this call executed the simulation itself.
	OutcomeMiss Outcome = iota
	// OutcomeHit: the result was already memoised.
	OutcomeHit
	// OutcomeCoalesced: an identical run was already in flight; this call
	// waited for it instead of re-simulating.
	OutcomeCoalesced
	// OutcomeReplayed: the result was produced by replaying a cached
	// timing trace instead of running the core timing simulation. Only
	// the two-level Exec reports this.
	OutcomeReplayed
	// OutcomeStore: the result was loaded from the persistent artifact
	// store (a prior process had computed it). No simulation and no
	// replay ran. Only an Exec with a Store attached reports this.
	OutcomeStore
)

// String names the outcome for logs and responses.
func (o Outcome) String() string {
	switch o {
	case OutcomeHit:
		return "cache"
	case OutcomeCoalesced:
		return "coalesced"
	case OutcomeReplayed:
		return "replayed"
	case OutcomeStore:
		return "store"
	default:
		return "simulated"
	}
}

// Cache is a request-coalescing LRU memo from K to V: one mutex over one
// map and one recency list holding at most capacity completed values.
// Concurrent Do calls with equal keys execute the underlying function
// exactly once (singleflight); when an insert overflows the capacity the
// least recently used value is evicted. All methods are safe for
// concurrent use.
//
// The executor layers these: a Cache[Key, *core.Result] over final
// evaluations and a Cache[TimingKey, *core.Timing] over the expensive
// cycle-accurate timing passes that several evaluations share.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	entries  map[K]*list.Element // resident values, value = *entry[K, V]
	order    list.List           // front = most recently used
	flight   map[K]*flight[V]
	capacity int // max resident values; <= 0 = unbounded

	hits      atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64
	evictions atomic.Uint64
}

// entry is one resident cache value.
type entry[K comparable, V any] struct {
	key K
	val V
}

// flight is one in-progress run; followers wait on done.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// NewCache builds a cache holding up to capacity completed values
// (capacity <= 0 means unbounded — the batch experiments' configuration).
func NewCache[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{
		entries:  make(map[K]*list.Element),
		flight:   make(map[K]*flight[V]),
		capacity: capacity,
	}
}

// Do returns the memoised value for key, executing fn at most once per
// key across all concurrent callers. A caller that finds an identical run
// in flight waits for it (or for its own context) instead of re-running.
// Errors are returned to every waiter of the failed attempt but are not
// cached: the next Do retries.
//
// The executing caller's context drives the run; if it is canceled, its
// waiters receive the cancellation error and a later Do re-executes.
func (c *Cache[K, V]) Do(ctx context.Context, key K, fn func(context.Context) (V, error)) (V, Outcome, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.mu.Unlock()
		c.hits.Add(1)
		return el.Value.(*entry[K, V]).val, OutcomeHit, nil
	}
	if f, ok := c.flight[key]; ok {
		c.mu.Unlock()
		c.coalesced.Add(1)
		select {
		case <-f.done:
			return f.val, OutcomeCoalesced, f.err
		case <-ctx.Done():
			var zero V
			return zero, OutcomeCoalesced, ctx.Err()
		}
	}
	f := &flight[V]{done: make(chan struct{})}
	c.flight[key] = f
	c.mu.Unlock()
	c.misses.Add(1)

	f.val, f.err = fn(ctx)

	c.mu.Lock()
	delete(c.flight, key)
	if f.err == nil {
		c.entries[key] = c.order.PushFront(&entry[K, V]{key: key, val: f.val})
		if c.capacity > 0 && c.order.Len() > c.capacity {
			oldest := c.order.Back()
			c.order.Remove(oldest)
			delete(c.entries, oldest.Value.(*entry[K, V]).key)
			c.evictions.Add(1)
		}
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, OutcomeMiss, f.err
}

// Get returns the memoised value for key without executing anything.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Len returns the number of resident values.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats is a snapshot of a cache's activity counters.
type Stats struct {
	Hits      uint64 // served from the resident cache
	Misses    uint64 // executed the underlying function
	Coalesced uint64 // waited on an identical in-flight run
	Evictions uint64 // resident values dropped by the LRU bound
	Resident  int    // values currently cached
}

// Stats snapshots the counters.
func (c *Cache[K, V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
		Resident:  c.Len(),
	}
}
