package node

import (
	"context"
	"strconv"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs"
	"github.com/defragdht/d2/internal/ring"
	"github.com/defragdht/d2/internal/store"
	"github.com/defragdht/d2/internal/transport"
)

// balanceProbe runs one Karger–Ruhl probe (§6): sample a random node A by
// random walk; if load(A) > t · load(self), change our ID to become A's
// predecessor, taking the lower half of A's primary range through block
// pointers.
func (n *Node) balanceProbe() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	n.metrics.balanceProbes.Inc()
	sample, err := transport.Expect[*transport.SampleResp](
		n.call(ctx, n.tr.Addr(), &transport.SampleReq{Hops: 6}))
	if err != nil || sample.Peer.IsZero() || sample.Peer.Addr == n.tr.Addr() {
		return
	}
	load, err := transport.Expect[*transport.LoadResp](
		n.call(ctx, sample.Peer.Addr, &transport.LoadReq{}))
	if err != nil {
		return
	}
	if !ring.Heavier(load.RespBytes, n.RespBytes(), ring.BalanceThreshold) {
		return
	}
	n.moveTo(ctx, load.Self)
}

// moveTo relocates this node to become a's predecessor at the byte-median
// of a's range. The move is the paper's voluntary leave+rejoin: our old
// range's new owner gets pointers to us, and we take pointers to a for
// our new range; pointer stabilization moves the data later.
func (n *Node) moveTo(ctx context.Context, a transport.PeerInfo) {
	split, err := transport.Expect[*transport.SplitResp](
		n.call(ctx, a.Addr, &transport.SplitReq{}))
	if err != nil || !split.Ok {
		return
	}
	// Census baseline: measure placement before the move so the delta
	// event below can answer "did this migration step improve locality"
	// from the live ring rather than a simulator.
	runsBefore, _, fragBefore := n.census.SweepNow()
	n.mu.Lock()
	oldSelf := n.self
	oldPred := n.pred
	succ := n.succs[0]
	n.mu.Unlock()
	if split.Median.Equal(oldSelf.ID) || succ.Addr == oldSelf.Addr {
		return
	}

	// Leave: install pointers at our successor (the new owner of our old
	// primary range) for the blocks we hold there. Entries we ourselves
	// hold only as pointers are forwarded with their real target — a
	// recent mover's arc is all pointers, and dropping them would leave
	// the successor unable to serve the inherited arc. A pointer needs
	// only key, size and target, so the arc is listed from the index.
	if !oldPred.IsZero() {
		var ptrs []transport.PutPtrReq
		n.st.ArcVisit(oldPred.ID, oldSelf.ID, func(k keys.Key, m store.Meta) bool {
			target := oldSelf.Addr
			if m.IsPointer() {
				target = m.Pointer
			}
			if target != succ.Addr { // else the successor already stores it
				ptrs = append(ptrs, transport.PutPtrReq{Key: k, Target: target, Size: m.Size})
			}
			return true
		})
		failed := 0
		for i := range ptrs {
			if _, err := transport.Expect[*transport.PutPtrResp](n.call(ctx, succ.Addr, &ptrs[i])); err != nil {
				failed++
			}
		}
		if failed > 0 {
			n.metrics.ptrPushErrors.Add(uint64(failed))
			n.events.Log(obs.LevelWarn, "balance.pointer_push_error",
				"succ", string(succ.Addr), "failed", strconv.Itoa(failed))
		}
	}

	// Learn our prospective neighbors and take pointers to a for the new
	// primary range BEFORE adopting the new identity: the moment lookups
	// route to us for (pred, median] we must already answer with data or a
	// redirect, never a spurious not-found.
	aNeighbors, err := transport.Expect[*transport.NeighborsResp](
		n.call(ctx, a.Addr, &transport.NeighborsReq{}))
	if err != nil {
		return
	}
	newPred := aNeighbors.Pred
	// The split point must still be inside a's primary range; if another
	// prober already rejoined at (or past) the median, adopting it now
	// would duplicate a live node ID.
	if !newPred.IsZero() && !split.Median.InOpenInterval(newPred.ID, a.ID) {
		return
	}
	if !newPred.IsZero() {
		// WithPointers: a may itself be a recent mover whose arc is still
		// all pointers. We must learn those keys too — taking over the arc
		// without them would make us a not-found hole — and we point at
		// the node actually storing each block so chains never grow.
		resp, err := transport.Expect[*transport.RangeResp](n.call(ctx, a.Addr, &transport.RangeReq{
			Lo: newPred.ID, Hi: split.Median, WithPointers: true,
		}))
		if err != nil {
			return
		}
		// PutPointer keeps any data already held under a key.
		now := time.Now()
		for _, it := range resp.Items {
			target := a.Addr
			if it.Pointer != "" {
				target = it.Pointer
			}
			if target == n.tr.Addr() {
				continue // never install a self-pointer
			}
			n.st.PutPointer(it.Key, target, it.Size, now)
		}
	}

	// Rejoin at the median: a becomes our successor. Our old neighbours
	// still name us at the old ID; the notice sends the old predecessor's
	// round to drop that entry and link to our old successor, and makes
	// the old successor forget us as its predecessor.
	newSelf := transport.PeerInfo{ID: split.Median, Addr: n.tr.Addr()}
	n.linkIn(ctx, newSelf, newPred, append([]transport.PeerInfo{a}, aNeighbors.Succs...))
	n.notify(ctx, newSelf, oldPred, succ)

	// The ring position changed; a durable engine must remember the new
	// one or a restart would rejoin on the pre-move arc.
	n.saveIdentity(newSelf.ID)

	n.metrics.balanceMoves.Inc()
	n.events.Log(obs.LevelInfo, "balance.move",
		"old_id", oldSelf.ID.Short(), "new_id", newSelf.ID.Short(),
		"succ", string(a.Addr))

	// Census delta: resweep against the new arc immediately instead of
	// waiting out the round, and log the before/after pair.
	runsAfter, _, fragAfter := n.census.SweepNow()
	n.events.Log(obs.LevelInfo, "census.delta",
		"op", "balance.move",
		"frag_before_milli", strconv.FormatInt(fragBefore, 10),
		"frag_after_milli", strconv.FormatInt(fragAfter, 10),
		"runs_before", strconv.FormatInt(runsBefore, 10),
		"runs_after", strconv.FormatInt(runsAfter, 10))
}
