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
// answered with an error instead, so the writer keeps it. A put replaces
// the entry and with it any pending removal deadline: the writer has stored
// the block again since asking for its removal. ttlSec is the put's TTL in
// seconds (0 = none).
func (n *Node) storeBlocks(ctx context.Context, ks []keys.Key, data [][]byte, ttlSec int64, fwd transport.Message) error {
	ttl := time.Duration(ttlSec) * time.Second
	var err error
	n.replicate(ctx, fwd, func() { err = store.PutBatch(n.st, ks, data, ttl, time.Now()) })
	return err
}

// handleGet serves a block, redirecting when only a pointer is held. The
// response is pooled and owns its payload (the engine's copy), so over TCP
// the transport recycles both once the frame is written.
func (n *Node) handleGet(ctx context.Context, r *transport.GetReq) transport.Message {
	resp := transport.AcquireGetResp()
	b, ok := n.st.Get(r.Key)
	if !ok {
		return resp
	}
	resp.Found = true
	if b.IsPointer() {
		n.metrics.ptrRedirects.Inc()
		tracing.FromContext(ctx).Annotate("redirect", b.Pointer)
		resp.Redirect = b.Pointer
		return resp
	}
	resp.Data = b.Data
	resp.OwnPayloads()
	return resp
}

// handleMultiGet serves a batch of blocks in one RPC, one item per
// requested key in request order. Pointer entries report a redirect
// instead of data, exactly as handleGet does.
func (n *Node) handleMultiGet(ctx context.Context, r *transport.MultiGetReq) transport.Message {
	blocks := n.st.GetBatch(r.Keys)
	// Pooled response owning its payloads: GetBatch loads every key into a
	// buffer of its own, even a key named twice, so over TCP the transport
	// recycles the response (and its Items capacity) and returns each
	// payload to the pool once the frame is written.
	resp := transport.AcquireMultiGetResp()
	resp.OwnPayloads()
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
	// Pooled response owning its payloads; see handleMultiGet.
	resp := transport.AcquireFetchRangeResp()
	resp.OwnPayloads()
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

// handleRemove sets the block's removal deadline (§3), forwarding to the
// replica group when asked. A durable engine logs the deadline as it logs
// a put, so the removal is acknowledged once it would survive a restart;
// the maintenance round drops the block once the deadline has passed.
func (n *Node) handleRemove(ctx context.Context, r *transport.RemoveReq) transport.Message {
	delay := time.Duration(r.DelaySec) * time.Second
	if delay <= 0 {
		delay = n.cfg.RemoveDelay
	}
	var fwd transport.Message
	if r.Replicate {
		fwd = &transport.RemoveReq{Key: r.Key, DelaySec: r.DelaySec}
	}
	n.metrics.removals.Inc()
	n.replicate(ctx, fwd, func() { n.st.Refresh(r.Key, delay, time.Now()) })
	return &transport.RemoveResp{}
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
// address, and repair restores the copy. A write whose replica group is
// short — fewer than r-1 targets, as on a ring smaller than r or while a
// successor list refills — is counted in
// d2_node_replica_short_writes_total, with no event: on a small ring every
// write would log one. ctx carries the caller's trace position so replica
// writes appear as children of the primary's handler span (it never
// carries cancellation — handlers run under background-derived contexts).
func (n *Node) replicate(ctx context.Context, fwd transport.Message, local func()) {
	if fwd == nil {
		local()
		return
	}
	targets := n.replicaTargets()
	if len(targets) < n.cfg.Replicas-1 {
		n.metrics.shortWrites.Inc()
	}
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
