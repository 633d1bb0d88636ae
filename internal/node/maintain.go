package node

import (
	"context"
	"slices"
	"sort"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/ring"
	"github.com/defragdht/d2/internal/store"
	"github.com/defragdht/d2/internal/transport"
)

// stalePointer is a pointer held past the stabilization time.
type stalePointer struct {
	key    keys.Key
	target transport.Addr // the node holding the data
}

// maintain is the node's one background round: keep every block on its r
// holders (§8 regeneration), turn the pointers a balance move installed
// into data (§6) and drop the entries whose deadline passed (§3). After
// resolving the replica lower bound lo, one walk of the whole index feeds
// the census, notes any due deadline and lists the primary data keys, the
// data keys outside (lo, self] and the stale pointers, leaving out every
// entry with a deadline; then the round sweeps, pushes to each successor
// what it lacks, hands the outside blocks to their owners and fetches the
// data behind the stale pointers. A node alone in its ring has no one to
// repair to.
func (n *Node) maintain() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	b := n.censusBounds()
	targets := n.replicaTargets()
	repair := !b.Pred.IsZero() && len(targets) > 0
	var lo keys.Key
	if repair {
		lo = n.replicaRangeStart(ctx)
	}

	var primary, outside []keys.Key
	var stale []stalePointer
	due := false
	now := time.Now()
	staleBefore := now.Add(-n.cfg.PointerStabilization).UnixNano()
	n.census.Begin(b)
	n.st.ArcVisit(b.Self, b.Self, func(k keys.Key, m store.Meta) bool {
		n.census.Step(k, m)
		switch {
		case m.Expires != 0:
			due = due || m.Expires < now.UnixNano()
		case m.IsPointer():
			if m.PointerSince < staleBefore {
				stale = append(stale, stalePointer{k, m.Pointer})
			}
		case !repair:
		case k.Between(b.Pred, b.Self):
			primary = append(primary, k)
		case !k.Between(lo, b.Self):
			outside = append(outside, k)
		}
		return true
	})
	n.census.End()

	if due {
		n.metrics.expired.Add(uint64(n.st.SweepExpired(now)))
	}
	if repair {
		n.repairReplicas(ctx, b.Pred, b.Self, targets, primary)
	}
	n.pushToOwners(ctx, outside, func(ks []keys.Key) {
		for _, k := range ks {
			n.st.Delete(k)
		}
		n.metrics.handoffs.Add(uint64(len(ks)))
	})
	n.resolvePointers(ctx, stale)
}

// replicaRangeStart returns the lower bound of the keys this node should
// hold: its replica floor (ring.Ring.Floor), the r-th predecessor's ID.
// We replicate for any owner among our r-1 predecessors, and an owner's
// range starts at ITS predecessor — so the bound is one hop past the
// farthest owner. Stopping a hop short (the farthest owner's own ID)
// excludes that owner's entire primary range: its second successor then
// hands those replicas off, the owner's repair pushes them back, and the
// pair ping-pongs the blocks forever while the cluster silently keeps r-1
// copies. The predecessor chain is walked with NeighborsReq; a chain that
// returns to us within r hops (a ring of at most r nodes) or breaks off
// early yields our own ID, the whole ring, so nothing is handed off on a
// partial view.
func (n *Node) replicaRangeStart(ctx context.Context) keys.Key {
	self := n.Self()
	chain := []keys.Key{self.ID}
	for cur := n.Predecessor(); !cur.IsZero() && cur.Addr != self.Addr; {
		if chain = append(chain, cur.ID); len(chain) > n.cfg.Replicas {
			break
		}
		resp, err := transport.Expect[*transport.NeighborsResp](
			n.call(ctx, cur.Addr, &transport.NeighborsReq{}))
		if err != nil {
			break
		}
		cur = resp.Pred
	}
	walked := ring.New(chain)
	i, _ := walked.Rank(self.ID)
	return walked.Floor(i, n.cfg.Replicas)
}

// repairPage is how many keys one page of a replica target's listing
// carries: the repair round's memory per target is one page, not its arc.
const repairPage = 1024

// repairReplicas pushes to each replica target the primary blocks ks of
// (lo, hi] its key listing lacks, and publishes the replica deficit for
// the health engine: slots with no target to fill them (a ring smaller
// than r) plus blocks not confirmed on a target this round. ks comes in
// key order, as the census walk listed it; an arc that wraps past key
// zero starts with its keys above lo, so those are rotated to the front.
func (n *Node) repairReplicas(ctx context.Context, lo, hi keys.Key, targets []transport.PeerInfo, ks []keys.Key) {
	cut := sort.Search(len(ks), func(i int) bool { return lo.Less(ks[i]) })
	slices.Reverse(ks[:cut])
	slices.Reverse(ks[cut:])
	slices.Reverse(ks)
	deficit := int64(n.cfg.Replicas-1-len(targets)) * int64(len(ks))
	for _, target := range targets {
		deficit += int64(n.repairTarget(ctx, lo, hi, target.Addr, ks))
	}
	n.metrics.replicaDeficit.Set(deficit)
}

// repairTarget lists the target's keys of (lo, hi] a page at a time, each
// page resuming after the last key of the one before, and merges each
// page against the part of ks it covers; both lists run in arc order from
// lo. What the pages lack is pushed once a page's worth has gathered, and
// at the end. It returns how many of ks went unconfirmed: those gathered
// but not pushed and those not yet compared when a listing or a push
// failed.
func (n *Node) repairTarget(ctx context.Context, lo, hi keys.Key, to transport.Addr, ks []keys.Key) int {
	var missing []keys.Key
	for i, from := 0, lo; ; {
		resp, err := transport.Expect[*transport.RangeResp](
			n.call(ctx, to, &transport.RangeReq{Lo: from, Hi: hi, Limit: repairPage}))
		if err != nil {
			return len(missing) + len(ks) - i // unreachable: the replica may be gone
		}
		page := resp.Items
		final := len(page) < repairPage || page[len(page)-1].Key == hi
		for j := 0; i < len(ks); i++ {
			k := ks[i]
			if !final && arcBefore(lo, page[len(page)-1].Key, k) {
				break // a later page covers k
			}
			for j < len(page) && arcBefore(lo, page[j].Key, k) {
				j++
			}
			if j == len(page) || page[j].Key != k {
				missing = append(missing, k)
			}
		}
		if final || len(missing) >= repairPage {
			unconfirmed := n.push(ctx, to, missing, false, func(sent []keys.Key) {
				n.metrics.repairPushes.Add(uint64(len(sent)))
			})
			if unconfirmed > 0 || final {
				return unconfirmed + len(ks) - i
			}
			missing = missing[:0]
		}
		from = page[len(page)-1].Key
	}
}

// arcBefore reports whether a comes before b on the arc that starts just
// past lo and runs once around the ring: keys above lo first, in key
// order, then those from zero up to lo itself.
func arcBefore(lo, a, b keys.Key) bool {
	if aHigh, bHigh := lo.Less(a), lo.Less(b); aHigh != bHigh {
		return aHigh
	}
	return a.Less(b)
}

// pushToOwners pushes the key-sorted ks to their owners, replicating, in
// owner runs: one Lookup resolves a key's owner, the owner confirms the
// range it claims, (pred, owner], and the following keys inside that range
// ride along without a lookup of their own. Runs this node owns itself are
// skipped, and so are runs no node confirms this round. The confirmation
// matters because a lookup's last hop answers from its successor pointer:
// right after a node (re)joins, the node before it still names the next
// node, which would ack the copies it already holds while the new owner —
// a primary restarting on an empty store — never receives them, leaving
// its keys on r-1 nodes for good.
func (n *Node) pushToOwners(ctx context.Context, ks []keys.Key, acked func([]keys.Key)) {
	for i := 0; i < len(ks); {
		owner, _, err := n.Lookup(ctx, ks[i])
		var claim *transport.NeighborsResp
		if err == nil && owner.Addr != n.tr.Addr() {
			claim, err = transport.Expect[*transport.NeighborsResp](
				n.call(ctx, owner.Addr, &transport.NeighborsReq{}))
		}
		j := i + 1
		if claim != nil && !claim.Pred.IsZero() && ks[i].Between(claim.Pred.ID, owner.ID) {
			for j < len(ks) && ks[j].Between(claim.Pred.ID, owner.ID) {
				j++
			}
			n.push(ctx, owner.Addr, ks[i:j], true, acked)
		}
		i = j
	}
}

// push is the node's one block-moving path: it sends its copies of ks to
// a peer as MultiPuts of at most maxPutBatchBlocks blocks, each read with
// one GetBatch, leaving out keys gone or turned into pointers since they
// were listed and every block with a deadline: it is leaving, and a copy
// would land without the deadline and outlive it (§3). acked sees every
// batch the peer acknowledged, which the receiver does only once the batch
// is durable there. push stops at the first failed batch and returns how
// many of ks went unconfirmed.
func (n *Node) push(ctx context.Context, to transport.Addr, ks []keys.Key, replicate bool, acked func([]keys.Key)) int {
	for i := 0; i < len(ks); i += maxPutBatchBlocks {
		chunk := append([]keys.Key(nil), ks[i:min(i+maxPutBatchBlocks, len(ks))]...)
		blocks := n.st.GetBatch(chunk)
		live, data := chunk[:0], make([][]byte, 0, len(chunk))
		for j, b := range blocks {
			if b != nil && !b.IsPointer() && b.Expires.IsZero() {
				live = append(live, chunk[j])
				data = append(data, b.Data)
			}
		}
		if len(live) == 0 {
			continue
		}
		if _, err := transport.Expect[*transport.MultiPutResp](n.call(ctx, to, &transport.MultiPutReq{
			Keys: live, Data: data, Replicate: replicate,
		})); err != nil {
			return len(ks) - i
		}
		acked(live)
	}
	return 0
}

// resolvePointers fetches the data behind the stale pointers (§6),
// following at most one redirect.
func (n *Node) resolvePointers(ctx context.Context, stale []stalePointer) {
	for _, p := range stale {
		resp, err := transport.Expect[*transport.GetResp](
			n.call(ctx, p.target, &transport.GetReq{Key: p.key}))
		if err != nil || !resp.Found {
			continue
		}
		if resp.Redirect != "" {
			// Pointer chain: follow one level.
			resp, err = transport.Expect[*transport.GetResp](
				n.call(ctx, resp.Redirect, &transport.GetReq{Key: p.key}))
			if err != nil || !resp.Found || resp.Redirect != "" {
				continue
			}
		}
		n.st.Put(p.key, resp.Data, 0, time.Now())
		n.metrics.ptrResolved.Inc()
	}
}
