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

// handlePut stores one block through storeBlocks; when Replicate is set
// (the primary's copy), the block goes to the r-1 following successors
// while it is stored here.
func (n *Node) handlePut(ctx context.Context, r *transport.PutReq) (transport.Message, error) {
	var fwd transport.Message
	if r.Replicate {
		fwd = &transport.PutReq{Key: r.Key, Data: r.Data, TTL: r.TTL}
	}
	if err := n.storeBlocks(ctx, []keys.Key{r.Key}, [][]byte{r.Data}, r.TTL, fwd); err != nil {
		return nil, err
	}
	return &transport.PutResp{}, nil
}

// handleMultiPut stores a batch through storeBlocks as one engine step
// (one WAL append and one fsync on the disk engine) while, when Replicate
// is set, the same batch goes to the r-1 successors as one non-replicating
// MultiPut each.
func (n *Node) handleMultiPut(ctx context.Context, r *transport.MultiPutReq) (transport.Message, error) {
	if len(r.Keys) != len(r.Data) {
		return nil, fmt.Errorf("node: multi_put with %d keys, %d payloads", len(r.Keys), len(r.Data))
	}
	n.metrics.multiPutBlocks.Observe(int64(len(r.Keys)))
	var fwd transport.Message
	if r.Replicate {
		fwd = &transport.MultiPutReq{Keys: r.Keys, Data: r.Data, TTL: r.TTL}
	}
	if err := n.storeBlocks(ctx, r.Keys, r.Data, r.TTL, fwd); err != nil {
		return nil, err
	}
	return &transport.MultiPutResp{}, nil
}

// storeBlocks is the write step under both puts. The ack rule: a put is
// acknowledged once it is durable here and every forward has returned — a
// forward that failed is counted and logged, not fatal (repair restores
// the missing copies) — and a put this node could not make durable is
// answered with an error instead, so the writer keeps it. A put of a key
// with a delayed removal pending keeps the block: the writer has stored
// it again since asking for the removal.
func (n *Node) storeBlocks(ctx context.Context, ks []keys.Key, data [][]byte, ttlSec int64, fwd transport.Message) error {
	ttl := n.ttlOf(ttlSec)
	n.cancelRemovals(ks...)
	var err error
	n.replicate(ctx, fwd, func() { err = store.PutBatch(n.st, ks, data, ttl, time.Now()) })
	return err
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

// undoomed filters ks in place down to the keys with no delayed removal
// pending, under one lock hold. Pushes must not carry doomed blocks: the
// copy would land without a removal schedule and resurrect the block
// after every holder that knew about the remove has deleted it (§3).
func (n *Node) undoomed(ks []keys.Key) []keys.Key {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.removeTimers) == 0 {
		return ks
	}
	live := ks[:0]
	for _, k := range ks {
		if _, doomed := n.removeTimers[k]; !doomed {
			live = append(live, k)
		}
	}
	return live
}

// replicaTargets returns the nodes holding this node's replicas: its
// first r-1 successors, fewer when the ring is smaller.
func (n *Node) replicaTargets() []transport.PeerInfo {
	n.mu.Lock()
	defer n.mu.Unlock()
	targets := make([]transport.PeerInfo, 0, n.cfg.Replicas-1)
	for _, p := range n.succs {
		if p.Addr != n.self.Addr && len(targets) < n.cfg.Replicas-1 {
			targets = append(targets, p)
		}
	}
	return targets
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
	targets := n.replicaTargets()
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
	runs, files, frag := n.census.SweepNow()
	n.events.LogCtx(ctx, obs.LevelInfo, "census.delta",
		"op", "balance.split_handout",
		"frag_milli", strconv.FormatInt(frag, 10),
		"runs", strconv.FormatInt(runs, 10),
		"files", strconv.FormatInt(files, 10))
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
