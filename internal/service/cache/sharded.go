package cache

import (
	"context"
	"encoding/binary"
	"runtime"
	"slices"
)

// Sharded is the multi-core result cache: the key space is split across a
// power-of-two number of independent shards selected by key bits, each a
// complete single-mutex Cache with its own LRU list, singleflight table
// and counters. Requests for distinct shards never contend on a lock, so
// throughput scales with cores instead of serialising on one mutex; keys
// are SHA-256 digests (uniformly distributed by construction), so shard
// occupancy stays balanced without any rehashing.
//
// Per shard, the semantics are exactly those of Cache — the single-shard
// implementation is the behavioural oracle, and property tests in this
// package drive identical traffic through both and assert identical
// hit/miss/collapse/eviction outcomes. Aggregate Stats are the sum over
// shards, so the hits+misses+collapsed conservation law carries over
// unchanged.
type Sharded[V any] struct {
	mask   uint64
	shards []*Cache[V]
}

// DefaultShards picks the shard count for NewSharded when the caller
// passes shards <= 0: the smallest power of two at or above
// runtime.GOMAXPROCS(0), clamped to [1, 128]. One shard per core is the
// contention sweet spot — more shards only dilute each LRU's capacity
// without removing any lock waits.
func DefaultShards() int {
	return ceilPow2(runtime.GOMAXPROCS(0), 128)
}

// ceilPow2 rounds n up to a power of two, clamped to [1, max].
func ceilPow2(n, max int) int {
	if n < 1 {
		n = 1
	}
	if n > max {
		n = max
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NewSharded returns a cache of the given total capacity split across a
// power-of-two number of shards (shards is rounded up; <= 0 selects
// DefaultShards). Capacity is divided evenly with any remainder rounded
// up, so the effective bound is capacity rounded up to shard granularity.
// capacity <= 0 disables storage on every shard while keeping per-shard
// singleflight deduplication, exactly as in New.
func NewSharded[V any](capacity, shards int) *Sharded[V] {
	if shards <= 0 {
		shards = DefaultShards()
	}
	shards = ceilPow2(shards, 1<<16)
	perShard := 0
	if capacity > 0 {
		perShard = (capacity + shards - 1) / shards
	}
	s := &Sharded[V]{
		mask:   uint64(shards - 1),
		shards: make([]*Cache[V], shards),
	}
	for i := range s.shards {
		s.shards[i] = New[V](perShard)
	}
	return s
}

// shard routes k by its low key bits. SHA-256 output is uniform, so any
// fixed 64-bit window balances the shards.
func (s *Sharded[V]) shard(k Key) *Cache[V] {
	return s.shards[binary.LittleEndian.Uint64(k[:8])&s.mask]
}

// Shards returns the shard count.
func (s *Sharded[V]) Shards() int { return len(s.shards) }

// Get returns the stored value for k from its shard, promoting it to most
// recently used there. It never waits on in-flight computations.
func (s *Sharded[V]) Get(k Key) (V, bool) { return s.shard(k).Get(k) }

// Do returns the cached value for k, or computes it with fn, with
// singleflight collapse scoped to k's shard — identical keys always land
// on the same shard, so the collapse guarantee is global. See Cache.Do
// for the full contract (detached compute, error pass-through, panic
// containment).
func (s *Sharded[V]) Do(ctx context.Context, k Key, fn func() (V, error)) (V, Source, error) {
	return s.shard(k).Do(ctx, k, fn)
}

// Put stores v under k directly on k's shard, bypassing singleflight.
// See Cache.Put for the contract.
func (s *Sharded[V]) Put(k Key, v V) { s.shard(k).Put(k, v) }

// Snapshot returns min(max, Len()) stored entries across shards, each
// shard's contribution most recently used first. The bound is filled
// like water: a shard holding fewer entries than its even share gives
// all of them, and the rest of the bound is split over the fuller
// shards, so uneven occupancy never shortens the result. It is the union
// of every shard's hot prefix rather than a globally ordered hot set —
// exactly what an anti-entropy digest wants (keys are SHA-256-uniform,
// so shard hot sets are statistically interchangeable). max <= 0
// returns every entry. Under concurrent writes the shard lengths are
// read before the entries, so the result may fall short of the bound.
func (s *Sharded[V]) Snapshot(max int) []Item[V] {
	if max <= 0 {
		var out []Item[V]
		for _, c := range s.shards {
			out = append(out, c.Snapshot(0)...)
		}
		return out
	}
	lens := make([]int, len(s.shards))
	order := make([]int, len(s.shards))
	for i, c := range s.shards {
		lens[i], order[i] = c.Len(), i
	}
	slices.SortFunc(order, func(a, b int) int { return lens[a] - lens[b] })
	// Emptiest shard first: each takes the smaller of its length and an
	// even share of what is left, so the last shards absorb the slack.
	quota := make([]int, len(s.shards))
	left := max
	for k, i := range order {
		share := (left + len(order) - k - 1) / (len(order) - k)
		quota[i] = min(lens[i], share)
		left -= quota[i]
	}
	out := make([]Item[V], 0, max-left)
	for i, c := range s.shards {
		if quota[i] > 0 {
			out = append(out, c.Snapshot(quota[i])...)
		}
	}
	return out
}

// Len returns the total number of stored entries across shards.
func (s *Sharded[V]) Len() int {
	n := 0
	for _, c := range s.shards {
		n += c.Len()
	}
	return n
}

// Stats returns the aggregate counters: the field-wise sum of every
// shard's snapshot. The counters obey the same conservation law as a
// single Cache — every Do call is exactly one of a hit, a miss or a
// collapse — because each call is counted once, on its shard.
func (s *Sharded[V]) Stats() Stats {
	var agg Stats
	for _, c := range s.shards {
		cs := c.Stats()
		agg.Hits += cs.Hits
		agg.Misses += cs.Misses
		agg.Collapsed += cs.Collapsed
		agg.Evictions += cs.Evictions
		agg.Entries += cs.Entries
	}
	return agg
}

// Purge drops every stored entry on every shard (in-flight computations
// are unaffected) and returns how many were dropped.
func (s *Sharded[V]) Purge() int {
	n := 0
	for _, c := range s.shards {
		n += c.Purge()
	}
	return n
}
