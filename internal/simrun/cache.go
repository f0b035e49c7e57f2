package simrun

import (
	"container/list"
	"context"
	"errors"
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
	// Exec reports this; a Cache alone never does.
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
// key at a time across all concurrent callers. A caller that finds an
// identical run in flight waits for it (or for its own context) instead of
// re-running and shares its outcome: the value, or the error, which is not
// cached, so the next Do retries.
//
// The executing caller's context drives the run, so a run can end because
// that context did (context.Canceled or context.DeadlineExceeded). That
// error belongs to the caller whose context it was: a waiter whose own
// context is still live joins or leads a fresh run instead, so a short
// deadline never fails a request that joined it with a longer one.
func (c *Cache[K, V]) Do(ctx context.Context, key K, fn func(context.Context) (V, error)) (V, Outcome, error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.order.MoveToFront(el)
			c.mu.Unlock()
			c.hits.Add(1)
			return el.Value.(*entry[K, V]).val, OutcomeHit, nil
		}
		f, ok := c.flight[key]
		if !ok {
			break
		}
		c.mu.Unlock()
		c.coalesced.Add(1)
		select {
		case <-f.done:
			ended := errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)
			if ended && ctx.Err() == nil {
				continue
			}
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
