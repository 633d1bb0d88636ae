package simdht

import (
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/ring"
	"github.com/defragdht/d2/internal/stats"
)

// startBalancers schedules each node's periodic load-balance probe with a
// random phase so probes spread over the interval.
func (c *Cluster) startBalancers() {
	for _, n := range c.nodes {
		n := n
		offset := time.Duration(c.rng.Float64() * float64(c.cfg.ProbeInterval))
		c.Eng.After(offset, func() { c.probeLoop(n) })
	}
}

func (c *Cluster) probeLoop(n *Node) {
	if n.Up {
		c.probe(n)
	}
	c.Eng.After(c.cfg.ProbeInterval, func() { c.probeLoop(n) })
}

// probe implements the Karger–Ruhl step (§6, Figure 5): node B contacts a
// random node A; if load(A) > t·load(B), B changes its ID to become A's
// predecessor, taking half of A's load. The ID change is a voluntary
// leave+rejoin, so data moves through block pointers.
func (c *Cluster) probe(b *Node) {
	if c.ring.Len() < 3 {
		return
	}
	a := c.nodes[c.nodeAt[c.rng.IntN(c.ring.Len())]]
	if a.Idx == b.Idx || !a.Up {
		return
	}
	if !ring.Heavier(a.RespBytes, b.RespBytes, ring.BalanceThreshold) {
		return
	}
	c.moveNode(b, a)
}

// moveNode relocates node b to become the predecessor of node a, splitting
// a's primary load at its median byte.
func (c *Cluster) moveNode(b, a *Node) {
	newID, ok := c.medianSplit(a)
	if !ok {
		return
	}
	if _, taken := c.ring.Rank(newID); taken {
		return // the split key is an existing member ID; skip this round
	}
	if newID.Equal(b.ID) {
		return
	}

	// Leave: b's old ranges regenerate via pointers to b (it still has
	// the data).
	oldID := b.ID
	c.deleteMember(b)
	if c.ring.Len() > 0 {
		lo, hi := c.affectedArc(oldID)
		c.resyncArc(lo, hi, true)
		c.recomputeResp(c.nodes[c.ownerNode(oldID)])
	}

	// Rejoin as a's predecessor at the median of a's range.
	b.ID = newID
	c.insertMember(b)
	lo, hi := c.affectedArc(newID)
	c.resyncArc(lo, hi, true)
	c.recomputeResp(b)
	c.recomputeResp(a)
	c.moves.Inc()
	c.sweepStale(b)
}

// medianSplit returns the key splitting node a's primary range into two
// byte-balanced halves: the new predecessor takes (pred, median] and a
// keeps (median, a].
func (c *Cluster) medianSplit(a *Node) (keys.Key, bool) {
	rank := c.memberRank(a)
	if rank < 0 {
		return keys.Key{}, false
	}
	lo, hi := c.ring.Range(rank)
	var split keys.Key
	found := false
	ring.ByteSplit(func(visit func(keys.Key, int64) bool) {
		c.global.AscendArc(lo, hi, func(k keys.Key, h int32) bool {
			return visit(k, int64(c.blocks[h].size))
		})
	}, 2, func(k keys.Key) bool {
		split, found = k, true
		return false
	})
	if !found || split.Equal(a.ID) {
		return keys.Key{}, false
	}
	return split, true
}

// Imbalance returns the normalized standard deviation of stored bytes over
// up nodes — the Figure 16/17 metric.
func (c *Cluster) Imbalance() float64 {
	return stats.NormStdDev(c.upLoads())
}

// MaxLoadRatio returns the maximum stored load divided by the mean.
func (c *Cluster) MaxLoadRatio() float64 {
	loads := c.upLoads()
	if len(loads) == 0 {
		return 0
	}
	var sum, max float64
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	mean := sum / float64(len(loads))
	if mean == 0 {
		return 0
	}
	return max / mean
}

func (c *Cluster) upLoads() []float64 {
	var loads []float64
	for _, n := range c.nodes {
		if n.Up {
			loads = append(loads, float64(n.HeldBytes))
		}
	}
	return loads
}
