package cache

import (
	"context"
	"encoding/binary"
	"testing"
)

func TestPutThenGet(t *testing.T) {
	c := New[int](4)
	c.Put(key(1), 10)
	if v, ok := c.Get(key(1)); !ok || v != 10 {
		t.Fatalf("Get after Put = (%d, %v), want (10, true)", v, ok)
	}
	// Put refreshes an existing entry in place.
	c.Put(key(1), 11)
	if v, _ := c.Get(key(1)); v != 11 {
		t.Fatalf("refreshed value = %d, want 11", v)
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
	// Do must see a Put entry as a plain hit, not recompute.
	v, src, err := c.Do(context.Background(), key(1), func() (int, error) {
		t.Fatal("compute ran although Put installed the entry")
		return 0, nil
	})
	if err != nil || v != 11 || src != Hit {
		t.Fatalf("Do after Put = (%d, %v, %v), want (11, Hit, nil)", v, src, err)
	}
}

func TestPutRespectsLRUBound(t *testing.T) {
	c := New[int](2)
	c.Put(key(1), 1)
	c.Put(key(2), 2)
	c.Put(key(3), 3) // evicts key 1, the least recently used
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("eviction skipped the oldest entry")
	}
	if _, ok := c.Get(key(2)); !ok {
		t.Fatal("key 2 evicted prematurely")
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPutPromotes(t *testing.T) {
	c := New[int](2)
	c.Put(key(1), 1)
	c.Put(key(2), 2)
	c.Put(key(1), 10) // promotes key 1 to most recently used
	c.Put(key(3), 3)  // must now evict key 2
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("promoted entry evicted")
	}
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("unpromoted entry survived")
	}
}

func TestPutZeroCapacityIsNoop(t *testing.T) {
	c := New[int](0)
	c.Put(key(1), 1)
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("zero-capacity cache stored a Put entry")
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("Len = %d, want 0", n)
	}
}

func TestSnapshotMRUOrder(t *testing.T) {
	c := New[int](8)
	for b := byte(1); b <= 4; b++ {
		c.Put(key(b), int(b))
	}
	c.Get(key(2)) // promote 2 to the front

	snap := c.Snapshot(0)
	if len(snap) != 4 {
		t.Fatalf("full snapshot has %d entries, want 4", len(snap))
	}
	if snap[0].Key != key(2) || snap[0].Val != 2 {
		t.Fatalf("snapshot head = %v, want the promoted entry", snap[0])
	}
	// A bounded snapshot keeps the hottest prefix.
	head := c.Snapshot(2)
	if len(head) != 2 || head[0].Key != key(2) || head[1].Key != key(4) {
		t.Fatalf("bounded snapshot = %v, want [key2 key4]", head)
	}
}

func TestSnapshotEmptyAndOverBound(t *testing.T) {
	c := New[int](4)
	if snap := c.Snapshot(0); len(snap) != 0 {
		t.Fatalf("empty cache snapshot has %d entries", len(snap))
	}
	c.Put(key(1), 1)
	if snap := c.Snapshot(100); len(snap) != 1 {
		t.Fatalf("over-bound snapshot has %d entries, want 1", len(snap))
	}
}

func TestShardedPutAndSnapshot(t *testing.T) {
	c := NewSharded[int](64, 4)
	for b := byte(1); b <= 32; b++ {
		c.Put(key(b), int(b))
	}
	for b := byte(1); b <= 32; b++ {
		if v, ok := c.Get(key(b)); !ok || v != int(b) {
			t.Fatalf("sharded Get(%d) = (%d, %v)", b, v, ok)
		}
	}
	full := c.Snapshot(0)
	if len(full) != 32 {
		t.Fatalf("full sharded snapshot has %d entries, want 32", len(full))
	}
	seen := map[Key]int{}
	for _, it := range full {
		seen[it.Key] = it.Val
	}
	for b := byte(1); b <= 32; b++ {
		if seen[key(b)] != int(b) {
			t.Fatalf("snapshot lost key %d", b)
		}
	}
	// A bounded sharded snapshot never exceeds its bound.
	if head := c.Snapshot(10); len(head) > 10 {
		t.Fatalf("bounded sharded snapshot has %d entries, want <= 10", len(head))
	} else if len(head) == 0 {
		t.Fatal("bounded sharded snapshot is empty")
	}
}

func TestShardedPutZeroCapacity(t *testing.T) {
	c := NewSharded[int](0, 4)
	c.Put(key(1), 1)
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("zero-capacity sharded cache stored a Put entry")
	}
	if snap := c.Snapshot(0); len(snap) != 0 {
		t.Fatalf("zero-capacity snapshot has %d entries", len(snap))
	}
}

// TestShardedSnapshotFillsBound pins the water-filling quota: with the
// entries split unevenly over the shards, a bounded snapshot still lists
// min(max, Len()) entries, each shard's part its most recently used
// prefix. An even per-shard share would list only 300 + 512 of 1024.
func TestShardedSnapshotFillsBound(t *testing.T) {
	c := NewSharded[int](8192, 2)
	counts := [2]int{300, 900}
	for shard, n := range counts {
		for i := 0; i < n; i++ {
			var k Key
			k[0] = byte(shard) // the shard, for two shards
			binary.LittleEndian.PutUint32(k[8:], uint32(i))
			c.Put(k, i)
		}
	}
	for _, max := range []int{1, 2, 599, 600, 601, 1024, 1199, 1200, 5000} {
		snap := c.Snapshot(max)
		if want := min(max, c.Len()); len(snap) != want {
			t.Fatalf("Snapshot(%d) listed %d entries, want %d", max, len(snap), want)
		}
		// Each shard's part is its hottest prefix: the latest puts, in
		// descending insertion order.
		next := [2]int{counts[0] - 1, counts[1] - 1}
		for _, it := range snap {
			shard := it.Key[0]
			if it.Val != next[shard] {
				t.Fatalf("Snapshot(%d): shard %d lists %d, want %d", max, shard, it.Val, next[shard])
			}
			next[shard]--
		}
	}
}
