package node

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs"
	"github.com/defragdht/d2/internal/obs/tracing"
	"github.com/defragdht/d2/internal/transport"
)

// batchFanout bounds the concurrent per-owner RPCs a single batch read or
// write issues.
const batchFanout = 8

// maxBatchKeys caps the keys in one MultiGet RPC. With D2's contiguous
// file keys a whole file often resolves to ONE owner, so an uncapped
// batch for a 64 MB file would ask for a 64 MB response — past the
// transport's frame cap. 1024 full blocks ≈ 8 MB per response, an 8×
// margin, and the chunks pipeline across the fan-out semaphore anyway.
const maxBatchKeys = 1024

// The read ladder's budgets. A one-shot read retries a missing key for two
// rounds. A stream segment races churn for longer than a one-shot read: a
// balance move or node kill can make a key transiently unreadable at its
// brand-new owner (§8.1), and a stream abandoned on the first not-found
// would drop mid-playback — so it gets a third round and longer sleeps
// before the segment reports the loss.
const (
	getRetryRounds      = 2
	getRetryBackoff     = 100 * time.Millisecond
	segmentRetryRounds  = 3
	segmentRetryBackoff = 150 * time.Millisecond
)

// readPolicy is what Get, GetMany and GetSegment tell fetch apart by.
type readPolicy struct {
	rounds  int           // retry rounds after the first
	backoff time.Duration // mean sleep before the first retry round; doubles per round
	retries *obs.Counter  // counts each key a retry round sets out to find
	// batch marks a batch read: the owner fan-out of every round is
	// recorded and every owner chunk gets a batch.group span.
	batch bool
}

// Get fetches a block, following pointer redirects and trying secondary
// replicas after a fresh lookup (§5: stale entries cost latency, never
// correctness). A not-found answer is retried briefly: while balance
// moves resettle ownership, a key can be transiently unreadable at its
// (brand-new) owner even though the block still exists in the ring (§8.1
// treats such failures as transient and retries them).
func (c *Client) Get(ctx context.Context, k keys.Key) ([]byte, error) {
	var (
		data  []byte
		found bool
	)
	err := c.traced(ctx, "client.get", func(ctx context.Context, _ *tracing.ActiveSpan) error {
		// The key slice and the sink live on this stack: fetch keeps
		// neither, so a single-key read allocates nothing for the ladder.
		ks := [1]keys.Key{k}
		return c.fetch(ctx, ks[:], c.getPolicy, func(_ keys.Key, d []byte) { data, found = d, true })
	})
	if !found && err == nil {
		err = ErrNotFound
	}
	return data, err
}

// GetMany fetches a batch of blocks with as few RPCs as the placement
// allows: keys are sorted, partitioned into runs by cached owner range
// (§5 — for D2's contiguous file keys one partition covers a whole file),
// and each owner is sent one MultiGet, with bounded fan-out across
// owners. Keys the owners do not return (stale cache, pointer chains,
// missing primaries) go through the re-resolve and replica-walk rounds of
// fetch, as a batch. The result maps each found key to its data; absent
// keys are simply omitted. Duplicate keys are fetched once.
func (c *Client) GetMany(ctx context.Context, ks []keys.Key) (map[keys.Key][]byte, error) {
	return c.getBatch(ctx, "client.get_many", ks, c.manyPolicy)
}

// GetSegment is the streaming read path's segment fetch: GetMany with the
// longer retry budget of a consumer racing churn. Keys still missing
// after it are omitted from the result, like GetMany; the caller decides
// whether a hole is fatal.
func (c *Client) GetSegment(ctx context.Context, ks []keys.Key) (map[keys.Key][]byte, error) {
	c.segments.Inc()
	return c.getBatch(ctx, "client.segment", ks, c.segPolicy)
}

// getBatch runs one traced batch read into a map.
func (c *Client) getBatch(ctx context.Context, op string, ks []keys.Key, p readPolicy) (map[keys.Key][]byte, error) {
	out := make(map[keys.Key][]byte, len(ks))
	err := c.traced(ctx, op, func(ctx context.Context, sp *tracing.ActiveSpan) error {
		if sp != nil {
			sp.Annotate("keys", len(ks))
		}
		if len(ks) == 0 {
			return nil
		}
		sorted := slices.Clone(ks)
		slices.SortFunc(sorted, keys.Key.Compare)
		return c.fetch(ctx, slices.Compact(sorted), p, func(k keys.Key, d []byte) { out[k] = d })
	})
	return out, err
}

// fetch is the client's one read ladder: every block the client reads by
// key — one or many — comes through here, so "what a read does when the
// first answer is wrong" is decided once. ks is sorted and distinct; each
// block found goes to sink, on the caller's goroutine; fetch keeps
// neither.
//
// A round asks the cached owners and then — the cached ranges of what
// they did not return dropped, so ownership is resolved from scratch —
// the new owners and their replica groups. What is still missing is
// retried for p.rounds more rounds with one jittered, doubling sleep in
// between — per round, not per key — because a key can be transiently
// unreadable while ownership resettles (§8.1). A lookup that fails or a
// peer that does not answer leaves its keys missing like a not-found
// answer does, so the next round re-resolves after repair has had time to
// run, instead of failing the read on the first dead peer.
//
// fetch returns nil when the last round ran cleanly — every key found, or
// the rest not stored anywhere it looked — and that round's first failure
// otherwise.
func (c *Client) fetch(ctx context.Context, ks []keys.Key, p readPolicy, sink func(keys.Key, []byte)) error {
	backoff := p.backoff
	for round := 0; ; round++ {
		missing, err := c.sweep(ctx, ks, false, p, sink)
		if len(missing) > 0 {
			for _, k := range missing {
				c.invalidate(k)
			}
			missing, err = c.sweep(ctx, missing, true, p, sink)
		}
		if len(missing) == 0 {
			return nil
		}
		if round == p.rounds {
			return err
		}
		if err := c.sleep(ctx, backoff); err != nil {
			return err
		}
		backoff *= 2
		p.retries.Add(uint64(len(missing)))
		ks = missing
	}
}

// run is a stretch of a sorted key batch that goes to one owner in one
// RPC: keys [lo, hi) of the batch.
type run struct {
	owner  transport.PeerInfo
	lo, hi int
}

// ownerRuns partitions sorted keys into per-owner runs of at most max
// keys, appending them to buf. Consecutive keys usually hit the same
// cached range, so this costs one full lookup per distinct owner, not per
// key. An owner with more than max keys gets several adjacent runs.
func (c *Client) ownerRuns(ctx context.Context, sorted []keys.Key, max int, buf []run) ([]run, error) {
	for i, k := range sorted {
		owner, err := c.Lookup(ctx, k)
		if err != nil {
			return nil, err
		}
		if n := len(buf); n > 0 && buf[n-1].owner.Addr == owner.Addr && buf[n-1].hi-buf[n-1].lo < max {
			buf[n-1].hi++
			continue
		}
		buf = append(buf, run{owner: owner, lo: i, hi: i + 1})
	}
	return buf, nil
}

// sweep sends ks to their owners as the lookup cache has them — one RPC
// per owner chunk, bounded fan-out across chunks — and, when walk is set,
// on to each owner's replica group for what the owner lacks. It returns
// the keys not found, in order, and the first failure.
func (c *Client) sweep(ctx context.Context, ks []keys.Key, walk bool, p readPolicy, sink func(keys.Key, []byte)) (missing []keys.Key, err error) {
	// A single key, or a file's run on one owner (§4), is one run: the
	// stack buffer and the inline call keep that path free of allocations.
	var one [1]run
	runs, err := c.ownerRuns(ctx, ks, maxBatchKeys, one[:0])
	if err != nil {
		return ks, err
	}
	if p.batch && !walk {
		owners := 1
		for i := 1; i < len(runs); i++ {
			if runs[i].owner.Addr != runs[i-1].owner.Addr {
				owners++
			}
		}
		c.fanout.Observe(int64(owners))
	}
	if len(runs) == 1 {
		return c.askGroup(ctx, runs[0].owner, ks, walk, p.batch, sink)
	}
	// What a goroutine is handed lives on the heap, so the fan-out works
	// on its own copy of the keys and ks can stay on a caller's stack.
	own := append([]keys.Key(nil), ks...)
	type result struct {
		found  []RangeEntry
		missed []keys.Key
		err    error
	}
	results := make([]result, len(runs))
	sem := make(chan struct{}, batchFanout)
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func(res *result, r run) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res.missed, res.err = c.askGroup(ctx, r.owner, own[r.lo:r.hi], walk, p.batch, func(k keys.Key, d []byte) {
				res.found = append(res.found, RangeEntry{Key: k, Data: d})
			})
		}(&results[i], r)
	}
	wg.Wait()
	for _, res := range results {
		for _, b := range res.found {
			sink(b.Key, b.Data)
		}
		missing = append(missing, res.missed...)
		if err == nil {
			err = res.err
		}
	}
	return missing, err
}

// askGroup asks one owner for a chunk of keys and, when walk is set, its
// replica group for what the owner did not have. A batch read wraps it in
// a batch.group span — the unit of batching the §5 key scheme optimizes
// for; each call derives its own child from the op span, so concurrent
// groups never share a parent pointer across goroutines. The error is the
// owner's: a successor that fails is a replica that is not there.
func (c *Client) askGroup(ctx context.Context, owner transport.PeerInfo, ks []keys.Key, walk, batch bool, sink func(keys.Key, []byte)) (missed []keys.Key, err error) {
	if batch {
		gctx, gsp := c.tracer.StartSpan(ctx, "batch.group")
		if gsp != nil {
			gsp.Annotate("owner", owner.Addr, "keys", len(ks))
			defer func() {
				if len(missed) > 0 {
					gsp.Annotate("fallback", len(missed))
				}
				gsp.End()
			}()
		}
		ctx = gctx
	}
	missed, err = c.ask(ctx, owner.Addr, ks, sink)
	if !walk || len(missed) == 0 {
		return missed, err
	}
	group, nerr := transport.Expect[*transport.NeighborsResp](
		c.call(ctx, owner.Addr, &transport.NeighborsReq{}))
	if nerr != nil {
		return missed, err
	}
	for i := 0; i < len(group.Succs) && i < c.replicas-1; i++ {
		if missed, _ = c.ask(ctx, group.Succs[i].Addr, missed, sink); len(missed) == 0 {
			return nil, nil
		}
	}
	return missed, err
}

// ask reads ks from one node in one RPC — a single key as a GetReq, so a
// one-block read costs what it always did on the wire; several as one
// MultiGetReq — chasing pointer redirects. Blocks found go to sink; the
// keys the node does not have are returned, in order. A failed call
// returns all of ks with the error.
func (c *Client) ask(ctx context.Context, addr transport.Addr, ks []keys.Key, sink func(keys.Key, []byte)) ([]keys.Key, error) {
	if len(ks) == 1 {
		data, err := c.getFrom(ctx, addr, ks[0])
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				err = nil
			}
			return ks, err
		}
		sink(ks[0], data)
		return nil, nil
	}
	// The request gets its own copy of the keys: it goes to the heap, and
	// ks may be on a caller's stack.
	resp, err := transport.Expect[*transport.MultiGetResp](
		c.call(ctx, addr, &transport.MultiGetReq{Keys: append([]keys.Key(nil), ks...)}))
	if err == nil && len(resp.Items) != len(ks) {
		err = fmt.Errorf("node: multi_get from %s: %d items for %d keys", addr, len(resp.Items), len(ks))
	}
	if err != nil {
		return ks, err
	}
	var missed []keys.Key
	for i, it := range resp.Items {
		found, data := it.Found, it.Data
		if found && it.Redirect != "" {
			var gerr error
			data, gerr = c.getFrom(ctx, it.Redirect, ks[i])
			found = gerr == nil
		}
		if found {
			sink(ks[i], data)
		} else {
			missed = append(missed, ks[i])
		}
	}
	return missed, nil
}

// getFrom fetches a block from one node, following one pointer redirect.
func (c *Client) getFrom(ctx context.Context, addr transport.Addr, k keys.Key) ([]byte, error) {
	for i := 0; i < 2; i++ {
		resp, err := transport.Expect[*transport.GetResp](
			c.call(ctx, addr, &transport.GetReq{Key: k}))
		if err != nil {
			return nil, err
		}
		if !resp.Found {
			return nil, ErrNotFound
		}
		if resp.Redirect == "" {
			return resp.Data, nil
		}
		addr = resp.Redirect
	}
	return nil, fmt.Errorf("node: pointer chain too long for %s", k.Short())
}
