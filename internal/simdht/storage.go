package simdht

import (
	"fmt"
	"slices"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs/tracing"
	"github.com/defragdht/d2/internal/sim"
)

// allocBlock creates metadata for a new block.
func (c *Cluster) allocBlock(k keys.Key, size int32) int32 {
	var h int32
	if n := len(c.free); n > 0 {
		h = c.free[n-1]
		c.free = c.free[:n-1]
		c.blocks[h] = blockMeta{key: k, size: size, live: true}
	} else {
		h = int32(len(c.blocks))
		c.blocks = append(c.blocks, blockMeta{key: k, size: size, live: true})
	}
	c.byKey[k] = h
	c.global.Set(k, h)
	return h
}

// PutInstant stores a block immediately on all live members of its replica
// group, bypassing write bandwidth. Used for initial file system loading
// (§8.1 inserts the day-0 snapshot before the simulation starts).
func (c *Cluster) PutInstant(k keys.Key, size int32) {
	if h, exists := c.byKey[k]; exists {
		// Overwrite in place: size may change.
		c.rewriteBlock(h, size)
		return
	}
	h := c.allocBlock(k, size)
	if owner := c.ownerNode(k); owner >= 0 {
		c.nodes[owner].RespBytes += int64(size)
	}
	for _, d := range c.replicaNodes(k) {
		c.addReplica(c.nodes[d], h)
	}
}

// rewriteBlock models an in-place modification: placement is unchanged;
// only the size delta propagates to holders and responsibility.
func (c *Cluster) rewriteBlock(h int32, size int32) {
	b := &c.blocks[h]
	delta := int64(size) - int64(b.size)
	b.size = size
	if delta == 0 {
		return
	}
	for _, holder := range b.holders {
		c.nodes[holder].HeldBytes += delta
	}
	if owner := c.ownerNode(b.key); owner >= 0 {
		c.nodes[owner].RespBytes += delta
	}
}

// Write stores a block through the user's write link: the put completes
// when the user's 1500 kbps uplink has pushed the bytes (§8.1).
func (c *Cluster) Write(user int32, k keys.Key, size int32, done func()) {
	link := c.userLinks[user]
	if link == nil {
		link = sim.NewLink(c.Eng, c.cfg.UserWriteBPS)
		c.userLinks[user] = link
	}
	c.writtenBytes.Add(uint64(size))
	link.Enqueue(int64(size), func() {
		c.PutInstant(k, size)
		if done != nil {
			done()
		}
	})
}

// Remove deletes a block after the configured removal delay (§3: quick
// removal preserves locality; 30 s covers write-back staleness).
func (c *Cluster) Remove(k keys.Key) {
	c.Eng.After(c.cfg.RemoveDelay, func() {
		h, ok := c.byKey[k]
		if !ok {
			return
		}
		c.removeNow(h)
	})
}

func (c *Cluster) removeNow(h int32) {
	b := &c.blocks[h]
	if !b.live {
		return
	}
	if owner := c.ownerNode(b.key); owner >= 0 {
		c.nodes[owner].RespBytes -= int64(b.size)
	}
	for _, holder := range b.holders {
		n := c.nodes[holder]
		delete(n.held, h)
		n.HeldBytes -= int64(b.size)
	}
	for _, p := range b.pointers {
		delete(c.nodes[p.node].ptrs, h)
	}
	for _, f := range b.fetching {
		delete(c.nodes[f].fetch, h)
	}
	b.holders = nil
	b.pointers = nil
	b.fetching = nil
	b.live = false
	c.global.Delete(b.key)
	delete(c.byKey, b.key)
	c.free = append(c.free, h)
}

// addReplica records that node n stores the block.
func (c *Cluster) addReplica(n *Node, h int32) {
	if _, ok := n.held[h]; ok {
		return
	}
	b := &c.blocks[h]
	n.held[h] = struct{}{}
	n.HeldBytes += int64(b.size)
	b.holders = append(b.holders, int32(n.Idx))
}

// dropReplica removes the node's stored copy.
func (c *Cluster) dropReplica(n *Node, h int32) {
	if _, ok := n.held[h]; !ok {
		return
	}
	b := &c.blocks[h]
	delete(n.held, h)
	n.HeldBytes -= int64(b.size)
	for i, holder := range b.holders {
		if int(holder) == n.Idx {
			b.holders = append(b.holders[:i], b.holders[i+1:]...)
			break
		}
	}
}

// resyncArc re-establishes the replica invariant for every block in the
// arc (lo, hi]: each of the r successors must hold (or be acquiring) the
// block. viaPointers marks voluntary moves, which defer data movement
// with block pointers (§6); involuntary changes (failures) regenerate by
// fetching over the migration link.
func (c *Cluster) resyncArc(lo, hi keys.Key, viaPointers bool) {
	pending := c.pendScratch[:0]
	c.global.AscendArc(lo, hi, func(_ keys.Key, h int32) bool {
		pending = append(pending, h)
		return true
	})
	c.pendScratch = pending
	for _, h := range pending {
		c.resyncBlock(h, viaPointers)
	}
}

// resyncBlock fixes one block's replica set.
func (c *Cluster) resyncBlock(h int32, viaPointers bool) {
	b := &c.blocks[h]
	if !b.live {
		return
	}
	// desired aliases the replica scratch: everything below that runs
	// before maybeDropExtras must not call replicaNodes again.
	desired := c.replicaNodes(b.key)
	for _, d := range desired {
		if c.holds(d, h) || c.hasPointer(d, h) || c.isFetching(d, h) {
			continue
		}
		if viaPointers && !c.cfg.DisablePointers {
			if target := c.pickSource(b, h); target >= 0 {
				c.createPointer(d, h, target)
				continue
			}
		}
		c.scheduleFetch(d, h)
	}
	// Pointers at nodes no longer in the group vanish (their data never
	// moved); the new group members created their own pointers above,
	// which is the paper's pointer hand-off (B transfers pointers to D).
	if len(b.pointers) > 0 {
		out := b.pointers[:0]
		for _, p := range b.pointers {
			if slices.Contains(desired, p.node) {
				out = append(out, p)
			} else {
				delete(c.nodes[p.node].ptrs, h)
			}
		}
		b.pointers = out
	}
	c.maybeDropExtras(h)
}

// maybeDropExtras deletes unnecessary replicas once every desired member
// stores an actual copy, never risking the last copy.
func (c *Cluster) maybeDropExtras(h int32) {
	b := &c.blocks[h]
	if !b.live {
		return
	}
	desired := c.replicaNodes(b.key)
	if len(desired) == 0 {
		return
	}
	for _, d := range desired {
		if !c.holds(d, h) {
			return
		}
	}
	extras := c.extraScratch[:0]
	for _, holder := range b.holders {
		if !slices.Contains(desired, int(holder)) {
			extras = append(extras, holder)
		}
	}
	c.extraScratch = extras
	for _, e := range extras {
		c.dropReplica(c.nodes[e], h)
	}
}

// pickSource returns a node to fetch the block from: a live holder if one
// exists, otherwise a live pointer target holding the block, otherwise -1.
func (c *Cluster) pickSource(b *blockMeta, h int32) int {
	for _, holder := range b.holders {
		if c.nodes[holder].Up {
			return int(holder)
		}
	}
	for _, p := range b.pointers {
		if c.nodes[p.target].Up && c.holds(p.target, h) {
			return p.target
		}
	}
	return -1
}

// createPointer installs a block pointer at node d targeting the block's
// current holder, and schedules its stabilization: after the pointer has
// been held for PointerStabilization, d fetches the real block (§6).
func (c *Cluster) createPointer(d int, h int32, target int) {
	b := &c.blocks[h]
	b.pointers = append(b.pointers, ptrRef{node: d, target: target})
	c.nodes[d].ptrs[h] = struct{}{}
	c.Eng.After(c.cfg.PointerStabilization, func() {
		c.stabilizePointer(d, h)
	})
}

// stabilizePointer converts a pointer into a fetch if it still stands.
func (c *Cluster) stabilizePointer(d int, h int32) {
	b := &c.blocks[h]
	if !b.live || !c.hasPointer(d, h) {
		return
	}
	if c.holds(d, h) || c.isFetching(d, h) {
		return
	}
	c.scheduleFetch(d, h)
}

// scheduleFetch queues a block transfer into node d over its migration
// link. If no live source exists, it retries after FetchRetry.
func (c *Cluster) scheduleFetch(d int, h int32) {
	b := &c.blocks[h]
	if c.holds(d, h) || c.isFetching(d, h) {
		return
	}
	node := c.nodes[d]
	if !node.Up {
		return
	}
	if c.pickSource(b, h) < 0 {
		// All copies offline: retry once a source may be back.
		c.Eng.After(c.cfg.FetchRetry, func() {
			bb := &c.blocks[h]
			if bb.live && c.nodeInGroup(d, bb.key) {
				c.scheduleFetch(d, h)
			}
		})
		return
	}
	b.fetching = append(b.fetching, int32(d))
	node.fetch[h] = struct{}{}
	size := int64(b.size)
	start := c.Eng.Now()
	node.link.Enqueue(size, func() {
		c.finishFetch(d, h, size, start)
	})
}

// finishFetch completes a block transfer.
func (c *Cluster) finishFetch(d int, h int32, size int64, start time.Duration) {
	b := &c.blocks[h]
	for i, f := range b.fetching {
		if int(f) == d {
			b.fetching = append(b.fetching[:i], b.fetching[i+1:]...)
			break
		}
	}
	delete(c.nodes[d].fetch, h)
	if !b.live {
		return
	}
	node := c.nodes[d]
	if !node.Up {
		return
	}
	c.migratedBytes.Add(uint64(size))
	if c.cfg.Trace != nil {
		c.cfg.Trace.Record(tracing.Span{
			Trace: uint64(h) + 1, // one trace per block; +1 keeps handle 0 valid
			ID:    c.cfg.Trace.Total() + 1,
			Name:  "sim.fetch",
			Node:  fmt.Sprintf("sim-node-%d", d),
			Start: int64(start),
			Dur:   int64(c.Eng.Now() - start),
			Attrs: fmt.Sprintf("block=%d bytes=%d", h, size),
		})
	}
	c.addReplica(node, h)
	// The fulfilled pointer disappears.
	for i, p := range b.pointers {
		if p.node == d {
			b.pointers = append(b.pointers[:i], b.pointers[i+1:]...)
			delete(node.ptrs, h)
			break
		}
	}
	c.maybeDropExtras(h)
}

// BlockStatus reports whether the block exists and whether it is readable:
// some live node stores it, or a live node holds a pointer to a live
// holder (pointers keep data reachable during deferred migration, §6).
func (c *Cluster) BlockStatus(k keys.Key) (exists, available bool) {
	h, ok := c.byKey[k]
	if !ok {
		return false, false
	}
	b := &c.blocks[h]
	for _, holder := range b.holders {
		if c.nodes[holder].Up {
			return true, true
		}
	}
	for _, p := range b.pointers {
		if c.nodes[p.node].Up && c.nodes[p.target].Up && c.holds(p.target, h) {
			return true, true
		}
	}
	return true, false
}
