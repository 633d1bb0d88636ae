// Package lookupcache implements D2's client-side lookup cache (§5): it
// remembers the key ranges owned by nodes seen in recent lookup results so
// future requests for keys inside a cached range skip the DHT lookup
// entirely. Entries expire after a TTL (1.25 h in the paper, tuned to the
// node churn rate); a stale hit only costs latency because the store falls
// back to a normal lookup when the block is not found.
package lookupcache

import (
	"sort"
	"time"

	"github.com/defragdht/d2/internal/keys"
)

// DefaultTTL is the paper's cache entry lifetime, chosen from the
// PlanetLab leave/join rate (§5).
const DefaultTTL = 75 * time.Minute

// Cache maps key ranges to values of type V (a node address or index).
// Time is passed explicitly so the simulator can drive it with virtual
// clocks. Cache is not safe for concurrent use; each client owns one.
type Cache[V any] struct {
	ttl time.Duration
	// entries are non-overlapping arcs sorted by hi. A range that wraps
	// the origin is split on insert, so for every entry either lo < hi or
	// lo == MaxKey (the arc [0, hi]).
	entries []entry[V]
	// minExpires is a lower bound on every entry's expiry, letting Sweep
	// return immediately while nothing can have expired.
	minExpires time.Duration

	hits   uint64
	misses uint64
}

type entry[V any] struct {
	lo, hi  keys.Key // arc (lo, hi]
	value   V
	expires time.Duration
}

// New creates a cache with the given TTL (DefaultTTL if zero).
func New[V any](ttl time.Duration) *Cache[V] {
	if ttl == 0 {
		ttl = DefaultTTL
	}
	return &Cache[V]{ttl: ttl}
}

// Len returns the number of live entries (including not-yet-swept expired
// ones).
func (c *Cache[V]) Len() int { return len(c.entries) }

// Stats returns the hit and miss counts accumulated by Lookup.
func (c *Cache[V]) Stats() (hits, misses uint64) { return c.hits, c.misses }

// Lookup returns the cached value whose range covers k, if fresh.
func (c *Cache[V]) Lookup(k keys.Key, now time.Duration) (V, bool) {
	i := c.search(k)
	if i < len(c.entries) {
		e := &c.entries[i]
		if k.Between(e.lo, e.hi) {
			if e.expires > now {
				c.hits++
				return e.value, true
			}
			// Expired: drop it eagerly.
			c.entries = append(c.entries[:i], c.entries[i+1:]...)
		}
	}
	c.misses++
	var zero V
	return zero, false
}

// search returns the index of the first entry with hi ≥ k.
func (c *Cache[V]) search(k keys.Key) int {
	return sort.Search(len(c.entries), func(i int) bool {
		return !c.entries[i].hi.Less(k)
	})
}

// Insert records that the node identified by v owned the arc (lo, hi] at
// time now. Overlapping older entries are evicted: the new result is the
// freshest view of that part of the ring.
func (c *Cache[V]) Insert(lo, hi keys.Key, v V, now time.Duration) {
	if lo.Compare(hi) > 0 {
		// Wrapping arc: split into (lo, Max] and (Max, hi] ≡ [0, hi].
		c.insertArc(lo, keys.MaxKey, v, now)
		c.insertArc(keys.MaxKey, hi, v, now)
		return
	}
	c.insertArc(lo, hi, v, now)
}

func (c *Cache[V]) insertArc(lo, hi keys.Key, v V, now time.Duration) {
	// Evict entries overlapping (lo, hi]: aLo < bHi && bLo < aHi treated
	// as linear intervals (callers split wraps). Non-wrapped entries are
	// pairwise disjoint and sorted by hi — hence also by lo — so the
	// candidates form a run starting at the first entry with e.hi > lo,
	// found by binary search, and ending at the first non-wrapped entry
	// with e.lo ≥ hi. Wrapped entries (lo == MaxKey) never satisfy
	// e.lo < hi; they are skipped in place and never end the run.
	i := c.search(lo)
	if i < len(c.entries) && c.entries[i].hi.Equal(lo) {
		i++
	}
	j := i
	for j < len(c.entries) {
		e := &c.entries[j]
		if e.lo.Less(e.hi) && !e.lo.Less(hi) {
			break
		}
		j++
	}
	w := i
	for r := i; r < j; r++ {
		if c.entries[r].lo.Less(hi) {
			continue // overlapping: evict
		}
		c.entries[w] = c.entries[r]
		w++
	}
	if w < j {
		c.entries = append(c.entries[:w], c.entries[j:]...)
	}
	e := entry[V]{lo: lo, hi: hi, value: v, expires: now + c.ttl}
	i = c.search(hi)
	c.entries = append(c.entries, entry[V]{})
	copy(c.entries[i+1:], c.entries[i:])
	c.entries[i] = e
	if len(c.entries) == 1 || e.expires < c.minExpires {
		c.minExpires = e.expires
	}
}

// Invalidate removes the entry covering k, if any: called after a cached
// node turned out not to hold the block (stale entry).
func (c *Cache[V]) Invalidate(k keys.Key) {
	i := c.search(k)
	if i < len(c.entries) && k.Between(c.entries[i].lo, c.entries[i].hi) {
		c.entries = append(c.entries[:i], c.entries[i+1:]...)
	}
}

// Sweep drops every expired entry; call it occasionally to bound memory in
// long-running clients. While no entry can have expired (all expiries are
// at least minExpires), it returns without walking the entries at all.
func (c *Cache[V]) Sweep(now time.Duration) {
	if now < c.minExpires || len(c.entries) == 0 {
		return
	}
	out := c.entries[:0]
	min := time.Duration(0)
	for _, e := range c.entries {
		if e.expires > now {
			if min == 0 || e.expires < min {
				min = e.expires
			}
			out = append(out, e)
		}
	}
	c.entries = out
	c.minExpires = min
}
