package node

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime/pprof"
	"sync"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/lookupcache"
	"github.com/defragdht/d2/internal/obs"
	"github.com/defragdht/d2/internal/obs/tracing"
	"github.com/defragdht/d2/internal/transport"
)

// ErrNotFound reports a missing block.
var ErrNotFound = errors.New("node: block not found")

// Client reads and writes blocks through the DHT, avoiding lookups with a
// range-keyed lookup cache (§5). One Client serves one user; it is safe
// for concurrent use.
type Client struct {
	tr       transport.Transport
	seeds    []transport.Addr
	replicas int

	mu    sync.Mutex
	cache *lookupcache.Cache[transport.PeerInfo]
	rng   *rand.Rand
	start time.Time

	tracer *tracing.Tracer

	// Metrics live in the registry so Stats() is race-safe and d2ctl can
	// merge a client's view into the cluster-wide one.
	reg        *obs.Registry
	hits       *obs.Counter   // lookup-cache hits (§5)
	misses     *obs.Counter   // lookup-cache misses
	rpcs       *obs.Counter   // every outbound RPC (benchmarks compare read paths by this)
	fanout     *obs.Histogram // owner groups per GetMany
	nfRetries  *obs.Counter   // per-key retry rounds in Get and GetMany (§8.1 transients)
	lookupHops *obs.Histogram // hops per fresh lookup
	segments   *obs.Counter   // GetSegment calls (streaming read path)
	segRetries *obs.Counter   // per-key segment re-resolves under churn

	// The read ladder's three budgets (see fetch).
	getPolicy, manyPolicy, segPolicy readPolicy
}

// ClientConfig parameterizes a client.
type ClientConfig struct {
	// Seeds are entry points into the ring (at least one).
	Seeds []transport.Addr
	// Replicas is the cluster's r, used to try secondary replicas on
	// primary failure (default 3).
	Replicas int
	// CacheTTL is the lookup-cache TTL (default 75 min, §5).
	CacheTTL time.Duration
	// Seed drives replica selection.
	Seed uint64
	// Metrics is the client's registry; nil creates a fresh one.
	Metrics *obs.Registry
	// Tracer records request spans for sampled operations; nil disables
	// tracing. NewClient also attaches it to the transport endpoint when
	// the transport supports per-endpoint tracers.
	Tracer *tracing.Tracer
	// Events, when set together with Tracer, receives the slow-request
	// log: a warn event for every operation force-kept by the tracer's
	// slow threshold.
	Events *obs.EventLog
}

// NewClient creates a client using the given transport endpoint.
func NewClient(tr transport.Transport, cfg ClientConfig) (*Client, error) {
	if len(cfg.Seeds) == 0 {
		return nil, errors.New("node: client needs at least one seed")
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 3
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.New()
	}
	c := &Client{
		tr:         tr,
		seeds:      cfg.Seeds,
		replicas:   cfg.Replicas,
		tracer:     cfg.Tracer,
		cache:      lookupcache.New[transport.PeerInfo](cfg.CacheTTL),
		rng:        rand.New(rand.NewPCG(cfg.Seed, 0x434c4e54)), // "CLNT"
		start:      time.Now(),
		reg:        reg,
		hits:       reg.Counter("d2_client_cache_hits_total"),
		misses:     reg.Counter("d2_client_cache_misses_total"),
		rpcs:       reg.Counter("d2_client_rpcs_total"),
		fanout:     reg.Histogram("d2_client_getmany_fanout", obs.CountBuckets),
		nfRetries:  reg.Counter("d2_client_notfound_retries_total"),
		lookupHops: reg.Histogram("d2_client_lookup_hops", obs.CountBuckets),
		segments:   reg.Counter("d2_client_segments_total"),
		segRetries: reg.Counter("d2_client_segment_retries_total"),
	}
	c.getPolicy = readPolicy{rounds: getRetryRounds, backoff: getRetryBackoff, retries: c.nfRetries}
	c.manyPolicy = readPolicy{rounds: getRetryRounds, backoff: getRetryBackoff, retries: c.nfRetries, batch: true}
	c.segPolicy = readPolicy{rounds: segmentRetryRounds, backoff: segmentRetryBackoff, retries: c.segRetries, batch: true}
	if cfg.Tracer != nil {
		if ut, ok := tr.(interface{ UseTracer(*tracing.Tracer) }); ok {
			ut.UseTracer(cfg.Tracer)
		}
		if ev := cfg.Events; ev != nil {
			cfg.Tracer.OnSlow(func(root tracing.Span) {
				ev.Log(obs.LevelWarn, "slow.request",
					"op", root.Name,
					"trace", tracing.TraceIDString(root.Trace),
					"dur_ms", root.Dur/1e6)
			})
		}
	}
	// A client is a pure caller; answer anything inbound with an error.
	tr.Serve(func(context.Context, transport.Addr, transport.Message) (transport.Message, error) {
		return nil, errors.New("node: client endpoint serves no requests")
	})
	return c, nil
}

// now returns the cache clock.
func (c *Client) now() time.Duration { return time.Since(c.start) }

// Stats returns the lookup-cache hit and miss counts. The counts are
// atomic registry counters, so Stats is safe to call from any goroutine
// while reads are in flight.
func (c *Client) Stats() (hits, misses uint64) {
	return c.hits.Value(), c.misses.Value()
}

// RPCs returns the total RPCs this client has issued.
func (c *Client) RPCs() uint64 { return c.rpcs.Value() }

// Metrics returns the client's registry.
func (c *Client) Metrics() *obs.Registry { return c.reg }

// Tracer returns the client's request tracer (nil when disabled).
func (c *Client) Tracer() *tracing.Tracer { return c.tracer }

// call issues one counted RPC.
func (c *Client) call(ctx context.Context, to transport.Addr, req transport.Message) (transport.Message, error) {
	c.rpcs.Inc()
	return c.tr.Call(ctx, to, req)
}

// Lookup resolves the owner of key k, from cache when possible. Under a
// trace, a cache hit annotates the active span and a miss opens a lookup
// child span covering the full iterative resolution.
func (c *Client) Lookup(ctx context.Context, k keys.Key) (transport.PeerInfo, error) {
	c.mu.Lock()
	owner, ok := c.cache.Lookup(k, c.now())
	c.mu.Unlock()
	if ok {
		c.hits.Inc()
		if sp := tracing.FromContext(ctx); sp != nil {
			sp.Annotate("cache", "hit")
		}
		return owner, nil
	}
	c.misses.Inc()
	sctx, sp := c.tracer.StartSpan(ctx, "lookup")
	if sp != nil {
		sp.Annotate("cache", "miss", "key", k.Short())
	}
	owner, err := c.freshLookup(sctx, k)
	sp.EndErr(err)
	return owner, err
}

// freshLookup performs a full DHT lookup that skips the avoided peers and
// caches the owner's range. The walk routes around dead hops and falls back
// on each seed in turn. A walk that still fails — stuck, or out of seeds —
// is tried again after jittered exponential back-off, up to four walks
// (§8.1: routing failures are transient, resolved once links are repaired).
func (c *Client) freshLookup(ctx context.Context, k keys.Key, avoid ...transport.Addr) (transport.PeerInfo, error) {
	const attempts = 4
	backoff := 40 * time.Millisecond
	for attempt := 0; ; attempt++ {
		owner, pred, err := lookup(ctx, k, c.seedOrder(attempt), avoid, c.lookupHops, c.hop)
		if err == nil {
			if !pred.IsZero() {
				c.mu.Lock()
				c.cache.Insert(pred.ID, owner.ID, owner, c.now())
				c.mu.Unlock()
			}
			return owner, nil
		}
		if attempt == attempts-1 {
			return transport.PeerInfo{}, fmt.Errorf("node: lookup failed: %w", err)
		}
		if err := c.sleep(ctx, backoff); err != nil {
			return transport.PeerInfo{}, err
		}
		backoff *= 2
	}
}

// failover resolves k's owner after failed did not answer, counting a cache
// miss: a walk that avoids failed is answered by its predecessor with the
// successor after it, which holds a replica of the range. The answer is
// cached, so later requests for the range go straight there.
func (c *Client) failover(ctx context.Context, k keys.Key, failed transport.Addr) (transport.PeerInfo, error) {
	c.misses.Inc()
	return c.freshLookup(ctx, k, failed)
}

// seedOrder returns the seed list for one lookup attempt. The first
// attempt uses the configured order; retries rotate by a random offset so
// a seed that just failed (or answered from a stale view) is not the
// first one asked again.
func (c *Client) seedOrder(attempt int) []transport.Addr {
	if attempt == 0 || len(c.seeds) == 1 {
		return c.seeds
	}
	c.mu.Lock()
	off := 1 + c.rng.IntN(len(c.seeds)-1)
	c.mu.Unlock()
	out := make([]transport.Addr, len(c.seeds))
	for i := range c.seeds {
		out[i] = c.seeds[(off+i)%len(c.seeds)]
	}
	return out
}

// hop sends one request of a lookup walk. Under a trace, each hop is its
// own child span carrying the queried node, so a slow lookup shows
// exactly which hop cost the time.
func (c *Client) hop(ctx context.Context, to transport.Addr, req *transport.FindSuccReq) (*transport.FindSuccResp, error) {
	hctx, hsp := c.tracer.StartSpan(ctx, "lookup.hop")
	if hsp != nil {
		hsp.Annotate("at", to)
	}
	resp, err := transport.Expect[*transport.FindSuccResp](c.call(hctx, to, req))
	hsp.EndErr(err)
	return resp, err
}

// invalidate drops the cache entry covering k after a stale hit.
func (c *Client) invalidate(k keys.Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cache.Invalidate(k)
}

// sleep waits a jittered d (d/2 up to 3d/2, so clients that failed together
// do not retry in lockstep) or until ctx is done.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	c.mu.Lock()
	jitter := time.Duration(c.rng.Int64N(int64(d)))
	c.mu.Unlock()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d/2 + jitter):
		return nil
	}
}

// traced runs one client operation inside the tracing shell: an op span
// (a child when ctx already carries a trace, else a root subject to
// sampling) and pprof labels, so CPU profiles can be cut by operation for
// exactly the requests a trace cares about. fn gets the span to annotate;
// it is nil when nothing records. Untraced operations bypass spans and
// profiler labels entirely.
func (c *Client) traced(ctx context.Context, op string, fn func(context.Context, *tracing.ActiveSpan) error) error {
	sctx, sp := c.tracer.StartOp(ctx, op)
	if sp == nil && tracing.FromContext(sctx) == nil {
		return fn(ctx, nil)
	}
	var err error
	pprof.Do(sctx, pprof.Labels("d2_op", op), func(cx context.Context) {
		err = fn(cx, sp)
	})
	sp.EndErr(err)
	return err
}

// withOwner runs fn against the owner of k: the cached owner first and,
// when that fails — a stale cache entry or a dead node, which cost
// latency, never correctness (§5) — once more against a freshly resolved
// one: past the owner if it did not answer, else (say its disk failed) the
// owner a lookup names. Every single-owner request (Put, Remove, a PutMany
// chunk, a ReadRange partition) goes through it.
func (c *Client) withOwner(ctx context.Context, k keys.Key, fn func(owner transport.PeerInfo) error) error {
	owner, err := c.Lookup(ctx, k)
	if err != nil {
		return err
	}
	if err = fn(owner); err == nil {
		return nil
	}
	tracing.FromContext(ctx).Annotate("retry", err.Error())
	c.invalidate(k)
	if errors.Is(err, transport.ErrUnreachable) {
		owner, err = c.failover(ctx, k, owner.Addr)
	} else {
		owner, err = c.Lookup(ctx, k)
	}
	if err != nil {
		return err
	}
	return fn(owner)
}

// Put stores a block with r replicas.
func (c *Client) Put(ctx context.Context, k keys.Key, data []byte) error {
	return c.traced(ctx, "client.put", func(ctx context.Context, _ *tracing.ActiveSpan) error {
		return c.withOwner(ctx, k, func(owner transport.PeerInfo) error {
			_, err := transport.Expect[*transport.PutResp](c.call(ctx, owner.Addr, &transport.PutReq{
				Key: k, Data: data, Replicate: true,
			}))
			return err
		})
	})
}

// Remove deletes a block (and its replicas) after the node-side delay.
func (c *Client) Remove(ctx context.Context, k keys.Key) error {
	return c.traced(ctx, "client.remove", func(ctx context.Context, _ *tracing.ActiveSpan) error {
		return c.withOwner(ctx, k, func(owner transport.PeerInfo) error {
			_, err := transport.Expect[*transport.RemoveResp](c.call(ctx, owner.Addr, &transport.RemoveReq{
				Key: k, Replicate: true,
			}))
			return err
		})
	})
}

// Close releases the client endpoint.
func (c *Client) Close() error { return c.tr.Close() }
