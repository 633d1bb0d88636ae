// Package ring is the one model of the D2 ring and of the decisions the
// paper makes on it: which node owns a key and which r nodes hold it (§8
// regeneration), the replica floor below which a node holds nothing, where
// a node's range splits into equal-byte halves and when a probe moves the
// prober (§6 balancing). The event simulator (simdht), the performance
// simulator (perfsim), the storage index and the live node all decide with
// these functions, so the simulated and the deployed system cannot drift
// apart on them.
package ring

import (
	"fmt"
	"sort"

	"github.com/defragdht/d2/internal/keys"
)

// Ring is a sorted set of node IDs; a node's rank is its sorted position.
// The zero value is an empty ring ready for use. Ring is not safe for
// concurrent mutation.
type Ring struct {
	ids []keys.Key
}

// New builds a ring from the given node IDs. Duplicates are dropped.
func New(ids []keys.Key) *Ring {
	r := &Ring{ids: make([]keys.Key, len(ids))}
	copy(r.ids, ids)
	sort.Slice(r.ids, func(i, j int) bool { return r.ids[i].Less(r.ids[j]) })
	// Deduplicate in place.
	out := r.ids[:0]
	for i, id := range r.ids {
		if i == 0 || !id.Equal(r.ids[i-1]) {
			out = append(out, id)
		}
	}
	r.ids = out
	return r
}

// Len returns the number of nodes on the ring.
func (r *Ring) Len() int { return len(r.ids) }

// At returns the node ID at the given rank.
func (r *Ring) At(i int) keys.Key { return r.ids[i] }

// Rank returns the sorted position of id and whether it is on the ring.
// When it is not, the position is where Add would insert it.
func (r *Ring) Rank(id keys.Key) (int, bool) {
	i := sort.Search(len(r.ids), func(i int) bool { return !r.ids[i].Less(id) })
	return i, i < len(r.ids) && r.ids[i].Equal(id)
}

// SuccessorIndex returns the rank of the node that owns key k: the node
// with the smallest ID ≥ k, wrapping to rank 0 past the highest ID.
// The ring must be non-empty.
func (r *Ring) SuccessorIndex(k keys.Key) int {
	if len(r.ids) == 0 {
		panic("ring: SuccessorIndex on empty ring")
	}
	if i, _ := r.Rank(k); i < len(r.ids) {
		return i
	}
	return 0
}

// AppendReplicas appends to dst the ranks of key k's replica group, the
// rep nodes succeeding k: the owner first, then clockwise. A ring of rep
// nodes or fewer appends every node once, and an empty ring none. Reusing
// dst keeps the call allocation-free.
func (r *Ring) AppendReplicas(dst []int, k keys.Key, rep int) []int {
	n := len(r.ids)
	if n == 0 {
		return dst
	}
	start := r.SuccessorIndex(k)
	for i := 0; i < min(rep, n); i++ {
		dst = append(dst, (start+i)%n)
	}
	return dst
}

// Range returns the primary range (pred, id] of the node at rank i. With a
// single node lo == hi, which keys.Between reads as the whole ring.
func (r *Ring) Range(i int) (lo, hi keys.Key) {
	n := len(r.ids)
	return r.ids[(i-1+n)%n], r.ids[i]
}

// Floor returns the replica floor of the node at rank i: the ID of its
// rep-th predecessor. The node holds a copy of exactly the keys in
// (Floor, id] — it is in the replica group of every owner among its rep-1
// predecessors, and an owner's range starts at that owner's predecessor.
// On a ring of rep nodes or fewer every node holds every key, and Floor
// returns the node's own ID: (id, id] is the whole ring.
func (r *Ring) Floor(i, rep int) keys.Key {
	n := len(r.ids)
	if n <= rep {
		return r.ids[i]
	}
	return r.ids[(i-rep+n)%n]
}

// Holds reports whether the node at rank i is in key k's replica group,
// which is the case exactly when k lies above the node's replica floor.
func (r *Ring) Holds(i, rep int, k keys.Key) bool {
	return k.Between(r.Floor(i, rep), r.ids[i])
}

// RankDistance returns the clockwise distance in ranks from node i to
// node j.
func (r *Ring) RankDistance(i, j int) int {
	n := len(r.ids)
	return ((j-i)%n + n) % n
}

// Add inserts a node ID, keeping the ring sorted. It returns the new rank,
// or an error if the ID is already present (IDs must be unique).
func (r *Ring) Add(id keys.Key) (int, error) {
	i, ok := r.Rank(id)
	if ok {
		return 0, fmt.Errorf("ring: duplicate node ID %s", id.Short())
	}
	r.ids = append(r.ids, keys.Key{})
	copy(r.ids[i+1:], r.ids[i:])
	r.ids[i] = id
	return i, nil
}

// Remove deletes a node ID. It returns the rank it occupied, or an error
// if the ID is not on the ring.
func (r *Ring) Remove(id keys.Key) (int, error) {
	i, ok := r.Rank(id)
	if !ok {
		return 0, fmt.Errorf("ring: unknown node ID %s", id.Short())
	}
	r.ids = append(r.ids[:i], r.ids[i+1:]...)
	return i, nil
}

// ByteSplit cuts a key-ordered sequence of sized entries into n
// equal-byte parts. walk calls visit for each (key, size) in key order and
// stops when visit returns false; ByteSplit walks twice, once for the
// total. Cut i (1 ≤ i ≤ n) falls on the first key at which the cumulative
// bytes reach total·i/n, and cut is called with that key for i = 1, 2, …
// in order — several times with one key when several cuts fall on it —
// until it returns false. A sequence holding no bytes has no cuts. The
// byte median of an arc is its first cut with n = 2.
func ByteSplit(walk func(visit func(k keys.Key, size int64) bool), n int, cut func(k keys.Key) bool) {
	var total int64
	walk(func(_ keys.Key, size int64) bool {
		total += size
		return true
	})
	if total == 0 {
		return
	}
	var acc int64
	next := 1
	walk(func(k keys.Key, size int64) bool {
		acc += size
		for ; next <= n && acc >= total*int64(next)/int64(n); next++ {
			if !cut(k) {
				return false
			}
		}
		return next <= n
	})
}

// Heavier is the §6 probe rule: a light node B that probed node A moves to
// take half of A's range when load(A) > t·load(B).
func Heavier(probed, prober int64, t float64) bool {
	return float64(probed) > t*float64(prober)
}

// View is one node's neighbour table: its ID, its predecessor's, and its
// successors' nearest first.
type View struct {
	Self, Pred keys.Key
	Succs      []keys.Key
}

// Settled reports whether the views describe a settled ring of
// len(views) nodes: in ID order, each node's predecessor is the node
// before it and its first min(rep, n)-1 successors are the nodes after it.
// Writers that cache owner ranges from a ring that has not settled put
// blocks on non-owners.
func Settled(views []View, rep int) bool {
	n := len(views)
	sorted := make([]View, n)
	copy(sorted, views)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Self.Less(sorted[j].Self) })
	for i, v := range sorted {
		if n > 1 && !v.Pred.Equal(sorted[(i-1+n)%n].Self) {
			return false
		}
		if len(v.Succs) < min(rep, n)-1 {
			return false
		}
		for j := 0; j < min(rep, n)-1; j++ {
			if !v.Succs[j].Equal(sorted[(i+1+j)%n].Self) {
				return false
			}
		}
	}
	return true
}
