// Package sfcache is a bounded cache with singleflight computation: the
// first caller for a key computes (or, through Go, starts the computation
// in the background), concurrent callers for the same key wait for and
// share that one result, and completed entries are evicted FIFO beyond a
// bound. It is the one implementation behind both the serving layer's
// release cache and the plan cache — subtle concurrency code this
// repository should only have to get right once.
//
// Failed computations are never recorded: the entry is removed so a later
// attempt retries, but callers already waiting on the failed flight receive
// its error rather than each re-running a doomed computation. Eviction only
// ever touches completed entries, so it can never cut off the waiters of an
// in-flight computation.
package sfcache

import (
	"context"
	"sync"
	"sync/atomic"
)

// Cache is a bounded singleflight cache from string keys to V. The zero
// value is not usable; construct with New.
type Cache[V any] struct {
	mu         sync.Mutex
	entries    map[string]*entry[V]
	order      []string // completed entries, insertion order, for eviction
	maxEntries int

	hits      atomic.Uint64 // a lookup found a completed entry
	misses    atomic.Uint64 // a lookup led a new flight
	coalesced atomic.Uint64 // a lookup joined an in-flight computation
	evictions atomic.Uint64 // completed entries dropped beyond the bound
}

// Stats is a point-in-time snapshot of the cache's event counters, all
// monotone over the cache's life, classified at lookup time (a Do or a Go
// is one lookup): Hits counts lookups that found a completed entry, Misses
// counts lookups that led a computation, Coalesced counts lookups that
// joined another caller's in-flight computation — whether or not that
// flight ultimately succeeded, so a waiter that receives the flight's
// error (or abandons it on cancellation) still counted — and Evictions
// counts completed entries dropped beyond the bound. Hits + Coalesced approximates the work (and,
// for a release cache, the ε) saved by sharing; it is exact when flights
// succeed, a slight overcount when they fail.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	Evictions uint64 `json:"evictions"`
}

// Stats snapshots the cache's event counters.
func (c *Cache[V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
	}
}

type entry[V any] struct {
	ready chan struct{} // closed once val/err are set
	val   V
	err   error
}

// New returns an empty cache evicting beyond maxEntries completed entries
// (maxEntries < 1 means 1).
func New[V any](maxEntries int) *Cache[V] {
	if maxEntries < 1 {
		maxEntries = 1
	}
	return &Cache[V]{entries: make(map[string]*entry[V]), maxEntries: maxEntries}
}

// Has reports whether a completed, successful entry exists for key — a
// Do(key, ...) right now would be a plain hit. In-flight computations
// report false: a caller joining one waits for real work, which is exactly
// the distinction the serving layer's trace policy needs (a coalesced
// waiter of a slow compile should be traced like the leader). Has touches
// no event counters, so peeking never skews hit-ratio stats.
func (c *Cache[V]) Has(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return false
	}
	select {
	case <-e.ready:
		return e.err == nil
	default:
		return false
	}
}

// Len returns the number of entries (completed and in-flight).
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Preload installs an already-known value, as replayed from a durable store
// at startup. A later Preload of the same key replaces the earlier one
// (journals append re-records after eviction, so last wins). Preloaded
// entries count toward the eviction bound like any other.
func (c *Cache[V]) Preload(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := &entry[V]{ready: make(chan struct{}), val: val}
	close(e.ready)
	if _, exists := c.entries[key]; !exists {
		c.order = append(c.order, key)
	}
	c.entries[key] = e
	c.evictLocked()
}

// Do returns the cached value for key, or runs compute to produce it. The
// second result reports whether the value was shared — already cached, or
// joined in flight — rather than computed by this call (the compute closure
// runs synchronously in the calling goroutine, at most once per flight).
// A waiter abandons the flight (without disturbing it) when ctx is done.
func (c *Cache[V]) Do(ctx context.Context, key string, compute func() (V, error)) (V, bool, error) {
	e, lead := c.join(key)
	if lead {
		c.run(key, e, compute)
		return e.val, false, e.err
	}
	var zero V
	select {
	case <-e.ready:
		if e.err != nil {
			return zero, false, e.err
		}
		return e.val, true, nil
	case <-ctx.Done():
		return zero, false, ctx.Err()
	}
}

// Go starts key's flight in the background: it registers the flight under
// the cache lock, then runs compute on a new goroutine, so every Do for key
// issued after Go returns joins that flight instead of computing its own.
// It reports whether it started one. A key already cached or in flight
// starts nothing, and the lookup is counted exactly as Do counts it (a hit,
// or a coalesced join). done, when non-nil, runs on the flight's goroutine
// once the flight is published — or, failed, removed — so a caller can
// wait for the cache to settle.
func (c *Cache[V]) Go(key string, compute func() (V, error), done func()) bool {
	e, lead := c.join(key)
	if !lead {
		return false
	}
	go func() {
		c.run(key, e, compute)
		if done != nil {
			done()
		}
	}()
	return true
}

// join is the lookup half of Do and Go: it returns key's entry, counting a
// hit (completed) or a coalesced join (in flight), or registers a new
// in-flight entry, counting a miss, and reports that the caller leads it.
// The share is classified under the lock, so completion of the flight
// cannot race the classification.
func (c *Cache[V]) join(key string) (*entry[V], bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		select {
		case <-e.ready:
			c.hits.Add(1)
		default:
			c.coalesced.Add(1)
		}
		return e, false
	}
	e := &entry[V]{ready: make(chan struct{})}
	c.entries[key] = e
	c.misses.Add(1)
	return e, true
}

// run is the compute half of Do and Go: it computes a led flight, then
// publishes a success (subject to the bound) or removes a failure so a
// later attempt retries, and wakes the flight's waiters.
func (c *Cache[V]) run(key string, e *entry[V], compute func() (V, error)) {
	e.val, e.err = compute()
	c.mu.Lock()
	if e.err != nil {
		delete(c.entries, key)
	} else {
		c.order = append(c.order, key)
		c.evictLocked()
	}
	c.mu.Unlock()
	close(e.ready)
}

// Peek returns the completed, successful value for key. Unlike Do it never
// computes, never joins an in-flight flight, and touches no event counters
// — the maintenance read behind cache-lineage passes (advancing a cached
// plan to a new dataset generation), which must not skew hit-ratio stats.
func (c *Cache[V]) Peek(key string) (V, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	var zero V
	if !ok {
		return zero, false
	}
	select {
	case <-e.ready:
		if e.err != nil {
			return zero, false
		}
		return e.val, true
	default:
		return zero, false
	}
}

// Keys returns the completed entries' keys in insertion order. In-flight
// computations are not listed (their key is only published on success).
func (c *Cache[V]) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.order...)
}

// RemoveFunc drops every completed entry whose key satisfies pred and
// reports how many were dropped. In-flight computations are untouched —
// their waiters keep waiting, and the flight publishes normally — which is
// the same "eviction only touches completed entries" contract the bound
// enforces. Removals are purges, not capacity evictions, so the Evictions
// counter does not move.
func (c *Cache[V]) RemoveFunc(pred func(key string) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := 0
	kept := c.order[:0]
	for _, k := range c.order {
		if pred(k) {
			if _, ok := c.entries[k]; ok {
				delete(c.entries, k)
				removed++
			}
			continue
		}
		kept = append(kept, k)
	}
	c.order = kept
	return removed
}

// evictLocked drops the oldest completed entries beyond the bound. Every
// key in order points at a completed entry, so eviction never cuts off
// waiters of an in-flight computation.
func (c *Cache[V]) evictLocked() {
	for len(c.order) > c.maxEntries {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
		c.evictions.Add(1)
	}
}
