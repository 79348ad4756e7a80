// Package cache provides the result cache of the solver service: a
// bounded LRU keyed by canonical instance hashes, fronted by singleflight
// deduplication so that concurrent identical requests collapse to one
// underlying solve, which runs on the solver pool of internal/portfolio.
//
// The cache is value-agnostic; the service stores fully rendered response
// bodies, so a hit is a pure memory copy. All operations are safe for
// concurrent use.
package cache

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"pipesched/internal/portfolio"
)

// Key is a canonical request digest (a SHA-256 sum). Equal keys must mean
// semantically identical requests: the caller's canonical encoding is the
// single source of that guarantee.
type Key [32]byte

// Source reports how a Do call obtained its value.
type Source int

const (
	// Computed: this call ran the compute function itself (a cache miss
	// with no identical call in flight).
	Computed Source = iota
	// Hit: the value was served from the stored LRU entry.
	Hit
	// Collapsed: an identical call was already in flight; this call
	// waited for its result instead of recomputing.
	Collapsed
)

func (s Source) String() string {
	switch s {
	case Computed:
		return "miss"
	case Hit:
		return "hit"
	case Collapsed:
		return "collapsed"
	default:
		return "unknown"
	}
}

// Stats is a snapshot of the cache counters. Misses counts executions of
// the compute function — the number of underlying solves — so
// Hits+Collapsed over Hits+Collapsed+Misses is the effective dedup rate.
type Stats struct {
	Hits      uint64 // served from the stored entry
	Misses    uint64 // compute function executions
	Collapsed uint64 // waited on an in-flight identical call
	Evictions uint64 // entries dropped by the LRU bound
	Entries   int    // current stored entries
}

// call is one in-flight computation; waiters block on done.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// entry is one stored LRU element.
type entry[V any] struct {
	key Key
	val V
}

// Cache is a bounded LRU with singleflight deduplication. The zero value
// is not usable; construct with New.
type Cache[V any] struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[Key]*list.Element
	inflight map[Key]*call[V]
	stats    Stats
}

// New returns a cache bounded to capacity entries. capacity <= 0 disables
// storage entirely but keeps singleflight deduplication: concurrent
// identical calls still collapse, repeated sequential calls recompute.
func New[V any](capacity int) *Cache[V] {
	return &Cache[V]{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[Key]*list.Element),
		inflight: make(map[Key]*call[V]),
	}
}

// Get returns the stored value for k, promoting it to most recently used.
// It never waits on in-flight computations.
func (c *Cache[V]) Get(k Key) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// Do returns the cached value for k, or computes it with fn. Concurrent
// Do calls with the same key collapse: exactly one runs fn, the others
// wait for its outcome. Successful results are stored (subject to the LRU
// bound); errors are returned to every collapsed waiter but never cached,
// so the next call retries.
//
// fn runs on a solver-pool worker (portfolio.Go), detached from every
// caller: ctx bounds only this caller's wait, not the enqueue. A caller
// whose context fires abandons the wait with ctx's error while the
// computation proceeds — its result still lands in the cache for other
// waiters and later calls. fn should therefore not observe any single
// request's context, nor call Do. A panic in fn is contained: it becomes
// an error delivered to every waiter, and the in-flight slot is released.
func (c *Cache[V]) Do(ctx context.Context, k Key, fn func() (V, error)) (V, Source, error) {
	c.mu.Lock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		v := el.Value.(*entry[V]).val
		c.mu.Unlock()
		return v, Hit, nil
	}
	if cl, ok := c.inflight[k]; ok {
		c.stats.Collapsed++
		c.mu.Unlock()
		return c.wait(ctx, cl, Collapsed)
	}
	cl := &call[V]{done: make(chan struct{})}
	c.inflight[k] = cl
	c.stats.Misses++
	c.mu.Unlock()

	portfolio.Go(func() {
		defer func() {
			if r := recover(); r != nil {
				cl.err = fmt.Errorf("cache: compute panicked: %v", r)
			}
			c.mu.Lock()
			delete(c.inflight, k)
			if cl.err == nil && c.capacity > 0 {
				c.store(k, cl.val)
			}
			c.mu.Unlock()
			close(cl.done)
		}()
		cl.val, cl.err = fn()
	})
	return c.wait(ctx, cl, Computed)
}

// wait parks one caller on an in-flight call, bounded by its context.
func (c *Cache[V]) wait(ctx context.Context, cl *call[V], src Source) (V, Source, error) {
	select {
	case <-cl.done:
		return cl.val, src, cl.err
	case <-ctx.Done():
		var zero V
		return zero, src, ctx.Err()
	}
}

// store inserts k under the LRU bound; the caller holds c.mu. A racing
// leader may have stored the key already (two Do calls that both missed
// before either registered in flight are impossible, but Get/Do
// interleavings keep this defensive): the existing entry is refreshed.
func (c *Cache[V]) store(k Key, v V) {
	if el, ok := c.items[k]; ok {
		el.Value.(*entry[V]).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&entry[V]{key: k, val: v})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[V]).key)
		c.stats.Evictions++
	}
}

// Put stores v under k directly, bypassing singleflight: the peer tier
// of the clustered service uses it to install response bytes rendered
// elsewhere (a forwarded solve or an imported snapshot entry) as local
// second-tier hits. An existing entry is refreshed and promoted; with
// storage disabled (capacity <= 0) Put is a no-op, exactly as Do's store
// step would be.
func (c *Cache[V]) Put(k Key, v V) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store(k, v)
}

// Item is one exported cache entry, as returned by Snapshot.
type Item[V any] struct {
	Key Key
	Val V
}

// Snapshot returns up to max stored entries, most recently used first —
// the hot set a peer's anti-entropy digest lists. max <= 0 returns every
// entry. The values are returned as stored; callers sharing them across
// goroutines rely on the service's convention of never mutating cached
// values.
func (c *Cache[V]) Snapshot(max int) []Item[V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.ll.Len()
	if max > 0 && max < n {
		n = max
	}
	out := make([]Item[V], 0, n)
	for el := c.ll.Front(); el != nil && len(out) < n; el = el.Next() {
		e := el.Value.(*entry[V])
		out = append(out, Item[V]{Key: e.key, Val: e.val})
	}
	return out
}

// Len returns the number of stored entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	return s
}

// Purge drops every stored entry (in-flight computations are unaffected)
// and returns how many were dropped. Counters other than Entries persist.
func (c *Cache[V]) Purge() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.ll.Len()
	c.ll.Init()
	c.items = make(map[Key]*list.Element)
	return n
}
