// Package perfsim models the paper's Emulab performance experiments
// (§9): clients replay file-system access groups against a DHT with
// Mercury-style small-world routing, per-node access-link bandwidth, TCP
// slow-start behaviour, and client lookup caches, measuring lookup traffic
// (Fig. 9), end-to-end speedups (Figs. 10–12), cache miss rates (Fig. 13),
// and access-group latency scatter (Figs. 14–15).
package perfsim

import (
	"math"
	"math/rand/v2"
	"sort"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/ring"
)

// router answers lookups over a static ring snapshot with hop counting.
// Each node keeps its successor plus ~log2(n) long links chosen by
// Mercury's harmonic rank-distance sampling, which yields O(log n)-hop
// greedy routes even under non-uniform key distributions (§6).
type router struct {
	*ring.Ring
	links [][]int // per rank: outgoing link ranks (successor first)
}

// newRouter builds routing tables over the sorted IDs.
func newRouter(ids []keys.Key, rng *rand.Rand) *router {
	n := len(ids)
	r := &router{Ring: ring.New(ids), links: make([][]int, n)}
	if n == 0 {
		return r
	}
	k := int(math.Ceil(math.Log2(float64(n + 1))))
	logN := math.Log(float64(n))
	for i := 0; i < n; i++ {
		links := []int{(i + 1) % n} // successor
		for j := 0; j < k; j++ {
			// Harmonic sampling: P(distance = d) ∝ 1/d over [1, n).
			// Inverse-CDF: d = exp(U · ln n).
			d := int(math.Exp(rng.Float64() * logN))
			if d < 1 {
				d = 1
			}
			if d >= n {
				d = n - 1
			}
			links = append(links, (i+d)%n)
		}
		r.links[i] = links
	}
	return r
}

// lookup routes greedily from the start rank to the owner of key k,
// returning the ranks visited after start (one per message hop).
func (r *router) lookup(start int, k keys.Key) []int {
	owner := r.SuccessorIndex(k)
	var path []int
	cur := start
	for cur != owner {
		remaining := r.RankDistance(cur, owner)
		best := -1
		bestAdvance := 0
		for _, l := range r.links[cur] {
			adv := r.RankDistance(cur, l)
			if adv <= remaining && adv > bestAdvance {
				best = l
				bestAdvance = adv
			}
		}
		if best == -1 {
			best = r.links[cur][0] // successor always advances by one
		}
		cur = best
		path = append(path, cur)
		if len(path) > r.Len() {
			// Defensive: greedy clockwise routing cannot loop, but never
			// spin if an invariant breaks.
			break
		}
	}
	return path
}

// balancedRing returns n node IDs that partition the given sorted block
// keys into equal-byte ranges: the steady state D2's balancer converges to
// (§6). sizes[i] is the byte size of blocks[i]; the blocks must hold
// bytes.
func balancedRing(blocks []keys.Key, sizes []int64, n int) []keys.Key {
	ids := make([]keys.Key, 0, n)
	ring.ByteSplit(func(visit func(keys.Key, int64) bool) {
		for i, k := range blocks {
			if !visit(k, sizes[i]) {
				return
			}
		}
	}, n, func(id keys.Key) bool {
		// Guarantee uniqueness when several boundaries land on one block
		// (gigantic files).
		for len(ids) > 0 && !ids[len(ids)-1].Less(id) {
			id = id.Next()
		}
		ids = append(ids, id)
		return true
	})
	return ids
}

// randomRing returns n uniformly random node IDs: consistent hashing.
func randomRing(n int, rng *rand.Rand) []keys.Key {
	ids := make([]keys.Key, n)
	for i := range ids {
		ids[i] = keys.Random(rng)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	return ids
}
