package node

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sort"
	"sync"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs/tracing"
	"github.com/defragdht/d2/internal/transport"
)

// batchFanout bounds the concurrent per-owner RPCs a single GetMany or
// ReadRange issues.
const batchFanout = 8

// maxBatchKeys caps the keys in one MultiGet RPC. With D2's contiguous
// file keys a whole file often resolves to ONE owner, so an uncapped
// batch for a 64 MB file would ask for a 64 MB response — past the
// transport's frame cap. 1024 full blocks ≈ 8 MB per response, an 8×
// margin, and the chunks pipeline across the fan-out semaphore anyway.
const maxBatchKeys = 1024

// maxPutBatchBlocks caps the blocks in one MultiPut RPC: 16 full blocks =
// 128 KB, the size of a read segment. That already spreads the round trip
// and the fsync over sixteen blocks, and it keeps what a batch pins at
// every hop — the frame at the owner and at each successor, the WAL
// encode buffer — small: with 64-block batches the five-node benchmark
// ring ran ~40 % faster and held twice the resident memory.
const maxPutBatchBlocks = 16

// maxRangeParts bounds the owners one ReadRange may visit (a full ring
// walk on a pathological cache would otherwise loop).
const maxRangeParts = 1024

// RangeEntry is one block returned by ReadRange, in key order.
type RangeEntry struct {
	Key  keys.Key
	Data []byte
}

// ownerGroup is a run of sorted keys resolving to one owner. data, on the
// write path only, holds the blocks to store, parallel to keys.
type ownerGroup struct {
	owner transport.PeerInfo
	keys  []keys.Key
	data  [][]byte
}

// chunkGroups splits groups of more than max keys into pieces of at most
// max, each its own RPC to the same owner.
func chunkGroups(groups []ownerGroup, max int) []ownerGroup {
	var out []ownerGroup
	for _, g := range groups {
		for len(g.keys) > max {
			head := ownerGroup{owner: g.owner, keys: g.keys[:max]}
			g.keys = g.keys[max:]
			if g.data != nil {
				head.data, g.data = g.data[:max], g.data[max:]
			}
			out = append(out, head)
		}
		out = append(out, g)
	}
	return out
}

// GetMany fetches a batch of blocks with as few RPCs as the placement
// allows: keys are sorted, partitioned into runs by cached owner range
// (§5 — for D2's contiguous file keys one partition covers a whole file),
// and each owner is sent one MultiGet, with bounded fan-out across
// owners. Keys the batch path cannot resolve (stale cache, pointer
// chains, missing primaries) fall back to the per-key Get path with its
// replica walk. The result maps each found key to its data; absent keys
// are simply omitted. Duplicate keys are fetched once.
func (c *Client) GetMany(ctx context.Context, ks []keys.Key) (map[keys.Key][]byte, error) {
	sctx, sp := c.tracer.StartOp(ctx, "client.get_many")
	if !opTraced(sctx, sp) {
		return c.getMany(ctx, ks)
	}
	sp.Annotate("keys", len(ks))
	var out map[keys.Key][]byte
	var err error
	pprof.Do(sctx, pprof.Labels("d2_op", "client.get_many"), func(cx context.Context) {
		out, err = c.getMany(cx, ks)
	})
	sp.EndErr(err)
	return out, err
}

// getMany is GetMany without the tracing shell.
func (c *Client) getMany(ctx context.Context, ks []keys.Key) (map[keys.Key][]byte, error) {
	out := make(map[keys.Key][]byte, len(ks))
	if len(ks) == 0 {
		return out, nil
	}
	sorted := append([]keys.Key(nil), ks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	dedup := sorted[:1]
	for _, k := range sorted[1:] {
		if !k.Equal(dedup[len(dedup)-1]) {
			dedup = append(dedup, k)
		}
	}
	groups, err := c.groupByOwner(ctx, dedup)
	if err != nil {
		return nil, err
	}
	c.fanout.Observe(int64(len(groups)))
	// Split oversized groups into frame-safe chunks (see maxBatchKeys);
	// each chunk is its own RPC, running under the same fan-out bound.
	groups = chunkGroups(groups, maxBatchKeys)

	var (
		mu       sync.Mutex
		fallback []keys.Key
		wg       sync.WaitGroup
	)
	sem := make(chan struct{}, batchFanout)
	for _, g := range groups {
		wg.Add(1)
		go func(g ownerGroup) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// One span per owner group: the unit of batching the §5 key
			// scheme optimizes for. Each goroutine derives its own child
			// from the op span, so concurrent groups never share a parent
			// pointer across goroutines.
			gctx, gsp := c.tracer.StartSpan(ctx, "batch.group")
			if gsp != nil {
				gsp.Annotate("owner", g.owner.Addr, "keys", len(g.keys))
			}
			found, missed := c.multiGet(gctx, g)
			if gsp != nil && len(missed) > 0 {
				gsp.Annotate("fallback", len(missed))
			}
			gsp.End()
			mu.Lock()
			for k, data := range found {
				out[k] = data
			}
			fallback = append(fallback, missed...)
			mu.Unlock()
		}(g)
	}
	wg.Wait()

	for _, k := range fallback {
		data, err := c.Get(ctx, k)
		if errors.Is(err, ErrNotFound) {
			continue
		}
		if err != nil {
			return out, err
		}
		out[k] = data
	}
	return out, nil
}

// groupByOwner partitions sorted keys into per-owner runs. Consecutive
// keys usually hit the same cached range, so this costs one lookup per
// distinct owner, not per key.
func (c *Client) groupByOwner(ctx context.Context, sorted []keys.Key) ([]ownerGroup, error) {
	var groups []ownerGroup
	for _, k := range sorted {
		owner, err := c.Lookup(ctx, k)
		if err != nil {
			return nil, err
		}
		if n := len(groups); n > 0 && groups[n-1].owner.Addr == owner.Addr {
			groups[n-1].keys = append(groups[n-1].keys, k)
			continue
		}
		groups = append(groups, ownerGroup{owner: owner, keys: []keys.Key{k}})
	}
	return groups, nil
}

// multiGet issues one MultiGet to a group's owner, chasing pointer
// redirects. It returns the resolved blocks and the keys that need the
// per-key fallback.
func (c *Client) multiGet(ctx context.Context, g ownerGroup) (found map[keys.Key][]byte, missed []keys.Key) {
	found = make(map[keys.Key][]byte, len(g.keys))
	resp, err := transport.Expect[*transport.MultiGetResp](
		c.call(ctx, g.owner.Addr, &transport.MultiGetReq{Keys: g.keys}))
	if err != nil || len(resp.Items) != len(g.keys) {
		// Dead or stale owner: drop its cached range and let the
		// fallback path re-resolve every key.
		for _, k := range g.keys {
			c.invalidate(k)
		}
		return found, g.keys
	}
	for i, it := range resp.Items {
		k := g.keys[i]
		switch {
		case !it.Found:
			missed = append(missed, k)
		case it.Redirect != "":
			if data, gerr := c.getFrom(ctx, it.Redirect, k); gerr == nil {
				found[k] = data
			} else {
				missed = append(missed, k)
			}
		default:
			found[k] = it.Data
		}
	}
	return found, missed
}

// PutMany stores a batch of blocks with as few RPCs as the placement
// allows — the write-path counterpart of GetMany. The batch is sorted,
// partitioned into runs by cached owner range (§5: a file's and a
// directory's blocks share one owner), cut into chunks of at most
// maxPutBatchBlocks, and each chunk goes to its owner as one replicating
// MultiPut — the owners in parallel, one owner's chunks one after the
// other. A chunk that fails is retried once after dropping its cached
// ranges and re-resolving its keys, exactly as Put retries. PutMany
// returns nil only when every block was acknowledged — durable on its
// owner under the owner's fsync policy; on error the caller must treat
// the whole batch as unacknowledged (puts are idempotent, so sending it
// again is safe). ks and data are parallel and are not modified; keys
// should be distinct.
func (c *Client) PutMany(ctx context.Context, ks []keys.Key, data [][]byte) error {
	sctx, sp := c.tracer.StartOp(ctx, "client.put_many")
	if !opTraced(sctx, sp) {
		return c.putMany(ctx, ks, data)
	}
	sp.Annotate("keys", len(ks))
	var err error
	pprof.Do(sctx, pprof.Labels("d2_op", "client.put_many"), func(cx context.Context) {
		err = c.putMany(cx, ks, data)
	})
	sp.EndErr(err)
	return err
}

// putMany is PutMany without the tracing shell.
func (c *Client) putMany(ctx context.Context, ks []keys.Key, data [][]byte) error {
	if len(ks) != len(data) {
		return fmt.Errorf("node: PutMany: %d keys, %d payloads", len(ks), len(data))
	}
	if len(ks) == 0 {
		return nil
	}
	// Callers that batch by file or by write-back window hand the keys
	// over already in order; only an unsorted batch is copied.
	if !sort.SliceIsSorted(ks, func(i, j int) bool { return ks[i].Less(ks[j]) }) {
		order := make([]int, len(ks))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(i, j int) bool { return ks[order[i]].Less(ks[order[j]]) })
		sk, sd := make([]keys.Key, len(ks)), make([][]byte, len(ks))
		for i, o := range order {
			sk[i], sd[i] = ks[o], data[o]
		}
		ks, data = sk, sd
	}
	groups, err := c.putGroups(ctx, ks, data)
	if err != nil {
		return err
	}

	var (
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	sem := make(chan struct{}, batchFanout)
	for _, g := range groups {
		wg.Add(1)
		go func(g ownerGroup) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// Owners run in parallel; one owner's chunks go in order, one
			// at a time, so a large batch never has more than one frame
			// per owner in flight.
			for _, part := range chunkGroups([]ownerGroup{g}, maxPutBatchBlocks) {
				gctx, gsp := c.tracer.StartSpan(ctx, "batch.group")
				if gsp != nil {
					gsp.Annotate("owner", part.owner.Addr, "keys", len(part.keys))
				}
				err := c.putGroup(gctx, part)
				gsp.EndErr(err)
				if err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}(g)
	}
	wg.Wait()
	return first
}

// putGroups partitions a sorted batch into per-owner runs of keys with
// their blocks.
func (c *Client) putGroups(ctx context.Context, sorted []keys.Key, data [][]byte) ([]ownerGroup, error) {
	groups, err := c.groupByOwner(ctx, sorted)
	if err != nil {
		return nil, err
	}
	off := 0
	for i := range groups {
		n := len(groups[i].keys)
		groups[i].data = data[off : off+n]
		off += n
	}
	return groups, nil
}

// putGroup sends one chunk to its owner; on failure (stale cache entry or
// dead node) it drops the chunk's cached ranges, re-resolves the keys —
// ownership may have split since — and sends each part once more.
func (c *Client) putGroup(ctx context.Context, g ownerGroup) error {
	err := c.multiPut(ctx, g)
	if err == nil {
		return nil
	}
	tracing.FromContext(ctx).Annotate("retry", err.Error())
	for _, k := range g.keys {
		c.invalidate(k)
	}
	parts, lerr := c.putGroups(ctx, g.keys, g.data)
	if lerr != nil {
		return lerr
	}
	for _, p := range parts {
		if err := c.multiPut(ctx, p); err != nil {
			return err
		}
	}
	return nil
}

// multiPut issues one replicating MultiPut to a group's owner.
func (c *Client) multiPut(ctx context.Context, g ownerGroup) error {
	_, err := transport.Expect[*transport.MultiPutResp](c.call(ctx, g.owner.Addr, &transport.MultiPutReq{
		Keys: g.keys, Data: g.data, Replicate: true,
	}))
	if err != nil {
		return fmt.Errorf("node: multi_put %d blocks to %s: %w", len(g.keys), g.owner.Addr, err)
	}
	return nil
}

// ReadRange reads every block stored in the circular arc (lo, hi]: the
// arc is partitioned by owner range — each partition is the intersection
// of the arc with one node's (pred, self] — and each owner is sent
// FetchRange RPCs for its partition. With D2's locality-preserving keys a
// whole file (or directory subtree) is one arc, so this reads it in ~one
// RPC per owner instead of one per block. Blocks are returned in key
// order. Requires lo != hi (a full-ring scan has no defined start).
func (c *Client) ReadRange(ctx context.Context, lo, hi keys.Key) ([]RangeEntry, error) {
	sctx, sp := c.tracer.StartOp(ctx, "client.read_range")
	if !opTraced(sctx, sp) {
		return c.readRange(ctx, lo, hi)
	}
	var out []RangeEntry
	var err error
	pprof.Do(sctx, pprof.Labels("d2_op", "client.read_range"), func(cx context.Context) {
		out, err = c.readRange(cx, lo, hi)
	})
	if sp != nil {
		sp.Annotate("blocks", len(out))
	}
	sp.EndErr(err)
	return out, err
}

// readRange is ReadRange without the tracing shell.
func (c *Client) readRange(ctx context.Context, lo, hi keys.Key) ([]RangeEntry, error) {
	if lo.Equal(hi) {
		return nil, errors.New("node: ReadRange needs a proper arc (lo != hi)")
	}
	var out []RangeEntry
	cur := lo
	for part := 0; part < maxRangeParts; part++ {
		owner, err := c.Lookup(ctx, cur.Next())
		if err != nil {
			return nil, err
		}
		// One span per owner segment: the arc∩(pred, self] unit ReadRange
		// fans out over.
		gctx, gsp := c.tracer.StartSpan(ctx, "range.segment")
		if gsp != nil {
			gsp.Annotate("owner", owner.Addr)
		}
		entries, segHi, last, err := c.fetchSegment(gctx, owner, cur, hi)
		if err != nil {
			// Stale cache: re-resolve the owner once and retry.
			c.invalidate(cur.Next())
			owner, err = c.freshLookup(gctx, cur.Next())
			if err != nil {
				gsp.EndErr(err)
				return nil, err
			}
			entries, segHi, last, err = c.fetchSegment(gctx, owner, cur, hi)
			if err != nil {
				gsp.EndErr(err)
				return nil, err
			}
		}
		if gsp != nil {
			gsp.Annotate("blocks", len(entries))
		}
		gsp.End()
		out = append(out, entries...)
		if last {
			return out, nil
		}
		cur = segHi
	}
	return nil, errors.New("node: range spans too many owners")
}

// fetchSegment reads the part of (cur, hi] owned by owner: the arc
// (cur, min(owner.ID, hi)], paginating through FetchRange responses and
// chasing pointer redirects. last reports that the segment reached hi.
func (c *Client) fetchSegment(ctx context.Context, owner transport.PeerInfo, cur, hi keys.Key) (entries []RangeEntry, segHi keys.Key, last bool, err error) {
	segHi = owner.ID
	if hi.Between(cur, owner.ID) {
		segHi, last = hi, true
	}
	lo := cur
	for {
		resp, rerr := transport.Expect[*transport.FetchRangeResp](
			c.call(ctx, owner.Addr, &transport.FetchRangeReq{Lo: lo, Hi: segHi}))
		if rerr != nil {
			return nil, segHi, last, rerr
		}
		for _, it := range resp.Items {
			if !it.Key.Between(cur, segHi) {
				continue // defensive: never return keys outside the asked arc
			}
			if it.Redirect != "" {
				data, gerr := c.getFrom(ctx, it.Redirect, it.Key)
				if gerr != nil {
					continue // pointer target gone; skip like a missing block
				}
				entries = append(entries, RangeEntry{Key: it.Key, Data: data})
				continue
			}
			entries = append(entries, RangeEntry{Key: it.Key, Data: it.Data})
		}
		if !resp.More {
			return entries, segHi, last, nil
		}
		if len(resp.Items) == 0 {
			return nil, segHi, last, fmt.Errorf("node: FetchRange from %s made no progress", owner.Addr)
		}
		lo = resp.Items[len(resp.Items)-1].Key
	}
}
