package node

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs"
	"github.com/defragdht/d2/internal/obs/tracing"
	"github.com/defragdht/d2/internal/store"
	"github.com/defragdht/d2/internal/transport"
)

// ttlOf turns a put's TTL field (seconds, 0 = unset) into the lifetime to
// store the block with.
func (n *Node) ttlOf(seconds int64) time.Duration {
	if seconds == 0 {
		return n.cfg.DefaultTTL
	}
	return time.Duration(seconds) * time.Second
}

// handlePut stores a replica; when Replicate is set (the primary's copy),
// the block goes to the r-1 following successors while it is stored here.
// A put of a key with a delayed removal pending keeps the block: the
// writer has stored it again since asking for the removal.
func (n *Node) handlePut(ctx context.Context, r *transport.PutReq) transport.Message {
	ttl := n.ttlOf(r.TTL)
	n.cancelRemovals(r.Key)
	var fwd transport.Message
	if r.Replicate {
		fwd = &transport.PutReq{Key: r.Key, Data: r.Data, TTL: r.TTL}
	}
	n.replicate(ctx, fwd, func() { n.st.Put(r.Key, r.Data, ttl, time.Now()) })
	return &transport.PutResp{}
}

// handleMultiPut stores a batch of replicas as one engine step (one WAL
// append and one fsync on the disk engine) while, when Replicate is set,
// the same batch goes to the r-1 successors as one non-replicating
// MultiPut each. The ack rule: the batch is acknowledged once it is
// durable here and every forward has returned — a forward that failed is
// counted and logged, not fatal (repair restores the missing copies) —
// and a batch this node could not make durable is answered with an error
// instead, so the writer keeps it in its write-back window.
func (n *Node) handleMultiPut(ctx context.Context, r *transport.MultiPutReq) (transport.Message, error) {
	if len(r.Keys) != len(r.Data) {
		return nil, fmt.Errorf("node: multi_put with %d keys, %d payloads", len(r.Keys), len(r.Data))
	}
	n.metrics.multiPutBlocks.Observe(int64(len(r.Keys)))
	ttl := n.ttlOf(r.TTL)
	n.cancelRemovals(r.Keys...)
	var fwd transport.Message
	if r.Replicate {
		fwd = &transport.MultiPutReq{Keys: r.Keys, Data: r.Data, TTL: r.TTL}
	}
	var err error
	n.replicate(ctx, fwd, func() { err = store.PutBatch(n.st, r.Keys, r.Data, ttl, time.Now()) })
	if err != nil {
		return nil, err
	}
	return &transport.MultiPutResp{}, nil
}

// handleGet serves a block, redirecting when only a pointer is held.
func (n *Node) handleGet(ctx context.Context, r *transport.GetReq) transport.Message {
	b, ok := n.st.Get(r.Key)
	if !ok {
		return &transport.GetResp{Found: false}
	}
	if b.IsPointer() {
		n.metrics.ptrRedirects.Inc()
		tracing.FromContext(ctx).Annotate("redirect", b.Pointer)
		return &transport.GetResp{Found: true, Redirect: b.Pointer}
	}
	return &transport.GetResp{Found: true, Data: b.Data}
}

// handleMultiGet serves a batch of blocks in one RPC, one item per
// requested key in request order. Pointer entries report a redirect
// instead of data, exactly as handleGet does.
func (n *Node) handleMultiGet(ctx context.Context, r *transport.MultiGetReq) transport.Message {
	blocks := n.st.GetBatch(r.Keys)
	// Pooled response: over TCP the transport recycles it (and its Items
	// capacity) once the frame is written, so bulk reads stop allocating
	// response scaffolding per RPC.
	resp := transport.AcquireMultiGetResp()
	redirects := 0
	for i, b := range blocks {
		item := transport.BatchItem{Key: r.Keys[i]}
		if b != nil {
			item.Found = true
			if b.IsPointer() {
				n.metrics.ptrRedirects.Inc()
				redirects++
				item.Redirect = b.Pointer
			} else {
				item.Data = b.Data
			}
		}
		resp.Items = append(resp.Items, item)
	}
	if redirects > 0 {
		tracing.FromContext(ctx).Annotate("redirects", redirects)
	}
	return resp
}

// fetchRangeMaxItems caps one FetchRange response; larger scans paginate
// via the More flag.
const fetchRangeMaxItems = 4096

// handleFetchRange ships every block held in the arc (Lo, Hi] with its
// data — the read-path counterpart of handleRange. Pointer entries become
// redirects so the caller can chase the data.
func (n *Node) handleFetchRange(r *transport.FetchRangeReq) transport.Message {
	limit := r.Limit
	if limit <= 0 || limit > fetchRangeMaxItems {
		limit = fetchRangeMaxItems
	}
	items, more := n.st.ArcLimit(r.Lo, r.Hi, limit)
	// Pooled response; see handleMultiGet.
	resp := transport.AcquireFetchRangeResp()
	resp.More = more
	for _, it := range items {
		bi := transport.BatchItem{Key: it.Key, Found: true}
		if it.Block.IsPointer() {
			bi.Redirect = it.Block.Pointer
		} else {
			bi.Data = it.Block.Data
		}
		resp.Items = append(resp.Items, bi)
	}
	return resp
}

// handleRemove deletes a block after the removal delay (§3), forwarding to
// the replica group when asked.
func (n *Node) handleRemove(ctx context.Context, r *transport.RemoveReq) transport.Message {
	delay := time.Duration(r.DelaySec) * time.Second
	if delay == 0 {
		delay = n.cfg.RemoveDelay
	}
	var fwd transport.Message
	if r.Replicate {
		fwd = &transport.RemoveReq{Key: r.Key, DelaySec: r.DelaySec}
	}
	n.replicate(ctx, fwd, func() { n.scheduleRemoval(r.Key, delay) })
	return &transport.RemoveResp{}
}

// scheduleRemoval arms (or re-arms) the delayed delete for a key. The
// timer deletes only while it is still the key's registered removal: a
// put that arrived in the meantime cancelled it (cancelRemovals).
func (n *Node) scheduleRemoval(k keys.Key, delay time.Duration) {
	n.metrics.removals.Inc()
	n.mu.Lock()
	defer n.mu.Unlock()
	if t, ok := n.removeTimers[k]; ok {
		t.Stop()
	}
	var t *time.Timer
	t = time.AfterFunc(delay, func() {
		n.mu.Lock()
		live := n.removeTimers[k] == t
		n.mu.Unlock()
		if !live {
			return
		}
		n.st.Delete(k)
		// The entry stays until the block is gone, so repair and handoff
		// see it as doomed for as long as they could still read it.
		n.mu.Lock()
		if n.removeTimers[k] == t {
			delete(n.removeTimers, k)
		}
		n.mu.Unlock()
	})
	n.removeTimers[k] = t
}

// cancelRemovals disarms the delayed deletes of keys being stored again:
// a file rewrite keeps the blocks it did not change under their old keys,
// after the previous save asked for those keys' removal.
func (n *Node) cancelRemovals(ks ...keys.Key) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.removeTimers) == 0 {
		return
	}
	for _, k := range ks {
		if t, ok := n.removeTimers[k]; ok {
			t.Stop()
			delete(n.removeTimers, k)
		}
	}
}

// doomed reports whether k has a delayed removal pending. Repair and
// handoff must not push doomed blocks: the copy would land without a
// removal schedule and resurrect the block after every holder that knew
// about the remove has deleted it (§3).
func (n *Node) doomed(k keys.Key) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.removeTimers[k]
	return ok
}

// replicate runs local — this node's own store step — while fwd, when
// non-nil, goes to the r-1 successors in parallel, and returns once all of
// them have finished: the three fsyncs of a replicated write overlap
// instead of queueing. Forwards are best effort: a failure is counted in
// d2_node_replica_forward_errors_total and logged with the peer's
// address, and repair restores the copy. ctx carries the caller's trace
// position so replica writes appear as children of the primary's handler
// span (it never carries cancellation — handlers run under
// background-derived contexts).
func (n *Node) replicate(ctx context.Context, fwd transport.Message, local func()) {
	if fwd == nil {
		local()
		return
	}
	n.mu.Lock()
	targets := make([]transport.PeerInfo, 0, n.cfg.Replicas-1)
	for _, p := range n.succs {
		if p.Addr == n.self.Addr {
			continue
		}
		targets = append(targets, p)
		if len(targets) == n.cfg.Replicas-1 {
			break
		}
	}
	n.mu.Unlock()
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, p := range targets {
		wg.Add(1)
		go func(to transport.Addr) {
			defer wg.Done()
			if _, err := n.call(ctx, to, fwd); err != nil {
				n.metrics.forwardErrors.Inc()
				n.events.LogCtx(ctx, obs.LevelWarn, "replica.forward_error",
					"peer", to, "rpc", transport.RPCName(fwd), "err", err.Error())
			}
		}(p.Addr)
	}
	local()
	wg.Wait()
}

// handleSplit returns the byte-median of this node's primary range, so a
// light prober can take the lower half (§6). A node hands out one split
// point at a time: until the previous prober has rejoined as predecessor
// (or visibly given up), concurrent probers are refused — otherwise two
// movers would both adopt the same median as their ID and corrupt the
// ring with duplicate node IDs.
func (n *Node) handleSplit(ctx context.Context) transport.Message {
	n.mu.Lock()
	pred, self := n.pred, n.self
	settling := !n.lastSplit.IsZero() &&
		time.Since(n.lastSplitAt) < 10*n.cfg.StabilizeInterval &&
		!pred.ID.Equal(n.lastSplit)
	n.mu.Unlock()
	if pred.IsZero() || settling {
		return &transport.SplitResp{}
	}
	m, ok := n.st.MedianKey(pred.ID, self.ID)
	if !ok || m.Equal(self.ID) {
		return &transport.SplitResp{}
	}
	n.mu.Lock()
	n.lastSplit = m
	n.lastSplitAt = time.Now()
	n.mu.Unlock()
	n.metrics.splitHandouts.Inc()
	n.events.LogCtx(ctx, obs.LevelInfo, "balance.split_handout", "median", m.Short())
	// Census baseline for the split: the prober rejoining as our
	// predecessor will shrink our primary range, and its own delta event
	// records the after-state; logging ours here gives the event log both
	// ends of the migration round.
	if n.census != nil {
		n.census.SweepNow()
		runs, files := n.census.Totals()
		n.events.LogCtx(ctx, obs.LevelInfo, "census.delta",
			"op", "balance.split_handout",
			"frag_milli", strconv.FormatInt(n.census.FragMilli(), 10),
			"runs", strconv.FormatInt(runs, 10),
			"files", strconv.FormatInt(files, 10))
	}
	return &transport.SplitResp{Ok: true, Median: m}
}

// handleRange lists (or ships) the blocks in an arc. The listing walks
// index metadata only; payloads are read, one block at a time, only when
// the caller asked for data.
func (n *Node) handleRange(r *transport.RangeReq) transport.Message {
	resp := &transport.RangeResp{}
	n.st.ArcVisit(r.Lo, r.Hi, func(k keys.Key, m store.Meta) bool {
		if m.IsPointer() && !r.WithPointers {
			return true
		}
		resp.Items = append(resp.Items, transport.RangeItem{Key: k, Size: m.Size, Pointer: m.Pointer})
		return r.Limit <= 0 || len(resp.Items) < r.Limit
	})
	if r.WithData {
		for i := range resp.Items {
			it := &resp.Items[i]
			if b, ok := n.st.Get(it.Key); ok && !b.IsPointer() {
				it.Data = b.Data
			}
		}
	}
	return resp
}

// dataKeys returns the keys of the data blocks (pointers excluded) held in
// the arc (lo, hi] that satisfy keep (nil keeps all) — from index metadata
// alone, so the maintenance rounds never hold more than one payload at a
// time.
func (n *Node) dataKeys(lo, hi keys.Key, keep func(keys.Key) bool) []keys.Key {
	var ks []keys.Key
	n.st.ArcVisit(lo, hi, func(k keys.Key, m store.Meta) bool {
		if !m.IsPointer() && (keep == nil || keep(k)) {
			ks = append(ks, k)
		}
		return true
	})
	return ks
}

// pushBlock sends this node's copy of k to a peer, reporting whether it
// was delivered. A block that has vanished, turned into a pointer or been
// doomed since it was listed is not sent.
func (n *Node) pushBlock(ctx context.Context, to transport.Addr, k keys.Key, replicate bool) bool {
	if n.doomed(k) {
		return false
	}
	b, ok := n.st.Get(k)
	if !ok || b.IsPointer() {
		return false
	}
	_, err := transport.Expect[*transport.PutResp](n.call(ctx, to, &transport.PutReq{
		Key: k, Data: b.Data, Replicate: replicate,
	}))
	return err == nil
}

// repair runs one replica-maintenance round:
//  1. push blocks of our primary range to our r-1 successors (diffing
//     keys first so data moves only when missing), and
//  2. hand blocks outside our replica responsibility to their primary,
//     then drop them.
func (n *Node) repair() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	n.mu.Lock()
	self := n.self
	pred := n.pred
	succs := make([]transport.PeerInfo, len(n.succs))
	copy(succs, n.succs)
	n.mu.Unlock()
	if pred.IsZero() || len(succs) == 0 || succs[0].Addr == self.Addr {
		return
	}

	// (1) Primary-range replication to successors. Track the replica
	// deficit while pushing: slots with no successor to fill them (ring
	// smaller than the replication target, e.g. after churn) plus blocks
	// we could not confirm on a successor this round. The gauge feeds the
	// health engine's replica_deficit check.
	primary := n.dataKeys(pred.ID, self.ID, nil)
	live := primary[:0]
	for _, k := range primary {
		if !n.doomed(k) {
			live = append(live, k)
		}
	}
	desired := n.cfg.Replicas - 1
	replicas := desired
	if replicas > len(succs) {
		replicas = len(succs)
	}
	deficit := int64(desired-replicas) * int64(len(live))
	for i := 0; i < replicas; i++ {
		deficit += n.pushMissing(ctx, succs[i], pred.ID, self.ID, live)
	}
	n.metrics.replicaDeficit.Set(deficit)

	// (2) Hand off blocks we should not hold. Our responsibility reaches
	// back r-1 predecessors; walk the pred chain to find the boundary.
	lo, ok := n.replicaRangeStart(ctx)
	if !ok {
		return
	}
	n.handOffOutside(ctx, lo, self.ID)
}

// pushMissing ships the primary data blocks ks of (lo, hi] that the target
// lacks. It returns the number it could not confirm on the target this
// round (an unreachable target counts every block: the replica may be
// gone), feeding repair's deficit gauge.
func (n *Node) pushMissing(ctx context.Context, target transport.PeerInfo, lo, hi keys.Key, ks []keys.Key) int64 {
	if target.Addr == n.tr.Addr() {
		return 0
	}
	resp, err := transport.Expect[*transport.RangeResp](
		n.call(ctx, target.Addr, &transport.RangeReq{Lo: lo, Hi: hi}))
	if err != nil {
		return int64(len(ks))
	}
	have := make(map[keys.Key]bool, len(resp.Items))
	for _, it := range resp.Items {
		have[it.Key] = true
	}
	var missing int64
	for _, k := range ks {
		if have[k] || n.doomed(k) {
			continue
		}
		if n.pushBlock(ctx, target.Addr, k, false) {
			n.metrics.repairPushes.Inc()
		} else {
			missing++
		}
	}
	return missing
}

// replicaRangeStart returns the lower bound of the keys this node should
// hold. We replicate for any owner among our r-1 predecessors, and an
// owner's range starts at ITS predecessor — so the bound is the r-th
// predecessor's ID, one hop past the farthest owner. Stopping a hop
// short (the farthest owner's own ID) excludes that owner's entire
// primary range: its second successor then hands those replicas off,
// the owner's repair pushes them back, and the pair ping-pongs the
// blocks forever while the cluster silently keeps r-1 copies.
func (n *Node) replicaRangeStart(ctx context.Context) (keys.Key, bool) {
	cur := n.Predecessor()
	if cur.IsZero() {
		return keys.Key{}, false
	}
	if cur.Addr == n.tr.Addr() {
		return n.Self().ID, true // alone: every key is ours
	}
	for i := 1; i < n.cfg.Replicas; i++ {
		resp, err := transport.Expect[*transport.NeighborsResp](
			n.call(ctx, cur.Addr, &transport.NeighborsReq{}))
		if err != nil || resp.Pred.IsZero() {
			return cur.ID, true
		}
		if resp.Pred.Addr == n.tr.Addr() {
			// The pred chain wrapped back to us within r hops: the ring
			// has at most r nodes, so we replicate every key. (lo == hi
			// is the whole-ring interval.)
			return n.Self().ID, true
		}
		cur = resp.Pred
	}
	return cur.ID, true
}

// handOffOutside pushes blocks outside (lo, hi] to their primary owner and
// drops the local copy once delivered.
func (n *Node) handOffOutside(ctx context.Context, lo, hi keys.Key) {
	// hi..hi is the whole store in key order.
	for _, k := range n.dataKeys(hi, hi, func(k keys.Key) bool { return !k.Between(lo, hi) }) {
		if n.doomed(k) {
			continue
		}
		owner, _, err := n.Lookup(ctx, k)
		if err != nil || owner.Addr == n.tr.Addr() {
			continue
		}
		if n.pushBlock(ctx, owner.Addr, k, true) {
			n.st.Delete(k)
			n.metrics.handoffs.Inc()
		}
	}
}

// stabilizePointers fetches the data for pointers held longer than the
// pointer stabilization time (§6).
func (n *Node) stabilizePointers() {
	deadline := time.Now().Add(-n.cfg.PointerStabilization)
	stale := n.st.StalePointers(deadline)
	if len(stale) == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, it := range stale {
		resp, err := transport.Expect[*transport.GetResp](
			n.call(ctx, it.Block.Pointer, &transport.GetReq{Key: it.Key}))
		if err != nil || !resp.Found {
			continue
		}
		if resp.Redirect != "" {
			// Pointer chain: follow one level.
			resp, err = transport.Expect[*transport.GetResp](
				n.call(ctx, resp.Redirect, &transport.GetReq{Key: it.Key}))
			if err != nil || !resp.Found || resp.Redirect != "" {
				continue
			}
		}
		n.st.Put(it.Key, resp.Data, n.cfg.DefaultTTL, time.Now())
		n.metrics.ptrResolved.Inc()
	}
}
