package node

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs/tracing"
	"github.com/defragdht/d2/internal/transport"
)

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

// PutMany stores a batch of blocks with as few RPCs as the placement
// allows — the write-path counterpart of GetMany. The batch is sorted,
// partitioned into runs by cached owner range (§5: a file's and a
// directory's blocks share one owner) of at most maxPutBatchBlocks, and
// each run goes to its owner as one replicating MultiPut — the owners in
// parallel, one owner's chunks one after the other. A chunk that fails is
// retried once, whole, at the freshly resolved owner of its first key,
// exactly as Put retries (a chunk is at most sixteen neighbouring keys;
// should a join have split their range meanwhile, the receiving node's
// hand-off moves the rest on). PutMany returns nil only when every block
// was acknowledged — durable on its owner under the owner's fsync policy;
// on error the caller must treat the whole batch as unacknowledged (puts
// are idempotent, so sending it again is safe). ks and data are parallel
// and are not modified; keys should be distinct.
func (c *Client) PutMany(ctx context.Context, ks []keys.Key, data [][]byte) error {
	return c.traced(ctx, "client.put_many", func(ctx context.Context, sp *tracing.ActiveSpan) error {
		if sp != nil {
			sp.Annotate("keys", len(ks))
		}
		return c.putMany(ctx, ks, data)
	})
}

// putMany is PutMany without the tracing shell.
func (c *Client) putMany(ctx context.Context, ks []keys.Key, data [][]byte) error {
	if len(ks) != len(data) {
		return fmt.Errorf("node: PutMany: %d keys, %d payloads", len(ks), len(data))
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
	runs, err := c.ownerRuns(ctx, ks, maxPutBatchBlocks, nil)
	if err != nil {
		return err
	}

	var (
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	sem := make(chan struct{}, batchFanout)
	for i := 0; i < len(runs); {
		j := i + 1
		for j < len(runs) && runs[j].owner.Addr == runs[i].owner.Addr {
			j++
		}
		wg.Add(1)
		go func(chunks []run) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// Owners run in parallel; one owner's chunks go in order, one
			// at a time, so a large batch never has more than one frame
			// per owner in flight.
			for _, r := range chunks {
				if err := c.putChunk(ctx, ks[r.lo:r.hi], data[r.lo:r.hi]); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}(runs[i:j])
		i = j
	}
	wg.Wait()
	return first
}

// putChunk sends one chunk to its owner as one replicating MultiPut.
func (c *Client) putChunk(ctx context.Context, ks []keys.Key, data [][]byte) error {
	ctx, gsp := c.tracer.StartSpan(ctx, "batch.group")
	err := c.withOwner(ctx, ks[0], func(owner transport.PeerInfo) error {
		if gsp != nil {
			gsp.Annotate("owner", owner.Addr, "keys", len(ks))
		}
		_, err := transport.Expect[*transport.MultiPutResp](c.call(ctx, owner.Addr, &transport.MultiPutReq{
			Keys: ks, Data: data, Replicate: true,
		}))
		if err != nil {
			return fmt.Errorf("node: multi_put %d blocks to %s: %w", len(ks), owner.Addr, err)
		}
		return nil
	})
	gsp.EndErr(err)
	return err
}

// ReadRange reads every block stored in the circular arc (lo, hi]: the
// arc is partitioned by owner range — each partition is the intersection
// of the arc with one node's (pred, self] — and each owner is sent
// FetchRange RPCs for its partition. With D2's locality-preserving keys a
// whole file (or directory subtree) is one arc, so this reads it in ~one
// RPC per owner instead of one per block. Blocks are returned in key
// order. Requires lo != hi (a full-ring scan has no defined start).
func (c *Client) ReadRange(ctx context.Context, lo, hi keys.Key) ([]RangeEntry, error) {
	var out []RangeEntry
	err := c.traced(ctx, "client.read_range", func(ctx context.Context, sp *tracing.ActiveSpan) (err error) {
		out, err = c.readRange(ctx, lo, hi)
		if sp != nil {
			sp.Annotate("blocks", len(out))
		}
		return err
	})
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
		// One span per owner segment: the arc∩(pred, self] unit ReadRange
		// fans out over.
		gctx, gsp := c.tracer.StartSpan(ctx, "range.segment")
		var (
			entries []RangeEntry
			segHi   keys.Key
			last    bool
		)
		err := c.withOwner(gctx, cur.Next(), func(owner transport.PeerInfo) (err error) {
			if gsp != nil {
				gsp.Annotate("owner", owner.Addr)
			}
			entries, segHi, last, err = c.fetchSegment(gctx, owner, cur, hi)
			return err
		})
		if gsp != nil && err == nil {
			gsp.Annotate("blocks", len(entries))
		}
		gsp.EndErr(err)
		if err != nil {
			return nil, err
		}
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
