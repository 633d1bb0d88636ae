// Package d2 is a defragmented DHT-based distributed file system: blocks
// get locality-preserving keys (files of one directory occupy contiguous
// key ranges), clients cache node key ranges to skip lookups, and an
// active Karger–Ruhl load balancer with block pointers keeps storage
// balanced despite the non-uniform key distribution. It reproduces the
// system "D2" from Pang et al., Defragmenting DHT-based Distributed File
// Systems (ICDCS 2007).
//
// The public API has three layers:
//
//   - Cluster / Node: run DHT nodes, in-process (NewCluster) or over TCP
//     (StartNode / ConnectTCP).
//   - Client: block-level put/get/remove with a lookup cache (§5).
//   - Volume: the D2-FS file-system API (CreateVolume / OpenVolume) with
//     signed metadata, versioned blocks, inline small files, rename
//     without data movement, and a 30 s write-back cache (§3).
//
// The internal packages additionally contain the paper's full evaluation
// apparatus; see DESIGN.md and EXPERIMENTS.md.
package d2

import (
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"time"

	"github.com/defragdht/d2/internal/fs"
	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/node"
	"github.com/defragdht/d2/internal/obs"
	"github.com/defragdht/d2/internal/obs/census"
	"github.com/defragdht/d2/internal/obs/history"
	"github.com/defragdht/d2/internal/obs/tracing"
	"github.com/defragdht/d2/internal/ring"
	"github.com/defragdht/d2/internal/store/disk"
	"github.com/defragdht/d2/internal/transport"
)

// Key is a 64-byte DHT key (re-exported for block-level users).
type Key = keys.Key

// FileInfo describes a file or directory in a volume listing.
type FileInfo = fs.FileInfo

// Volume is a D2-FS file-system volume.
type Volume = fs.Volume

// VolumeOptions tunes volume behaviour.
type VolumeOptions = fs.Options

// File-system errors, re-exported for callers using errors.Is.
var (
	ErrNotExist = fs.ErrNotExist
	ErrExist    = fs.ErrExist
	ErrIsDir    = fs.ErrIsDir
	ErrNotDir   = fs.ErrNotDir
	ErrNotEmpty = fs.ErrNotEmpty
	ErrReadOnly = fs.ErrReadOnly
)

// GenerateKey creates a publisher signing key pair for volumes.
func GenerateKey() (ed25519.PublicKey, ed25519.PrivateKey, error) {
	return ed25519.GenerateKey(rand.Reader)
}

// NodeOptions configures a DHT node.
type NodeOptions struct {
	// Replicas is r, copies per block (default 3).
	Replicas int
	// Balance enables the active load balancer with the given probe
	// interval (zero disables; the paper uses 10 min).
	BalanceInterval time.Duration
	// PointerStabilization is how long a load-balance pointer is held
	// before data moves (default 1 h).
	PointerStabilization time.Duration
	// RemoveDelay postpones block removals (default 30 s).
	RemoveDelay time.Duration
	// StabilizeInterval drives ring maintenance (default 500 ms).
	StabilizeInterval time.Duration
	// RepairInterval paces the maintenance round: replica repair,
	// hand-off, pointer stabilization and the placement census behind
	// /censusz and d2ctl frag/map (default 5 s).
	RepairInterval time.Duration
	// Seed makes node identity deterministic (0 = random per node).
	Seed uint64
	// TraceSampleEvery keeps 1 in N requests' traces (0 disables head
	// sampling). Forced traces (d2ctl trace) work regardless.
	TraceSampleEvery int
	// TraceSlowThreshold force-keeps the trace of any operation at least
	// this slow, regardless of sampling (0 disables). Setting it makes
	// every operation provisionally traced, which costs allocations.
	TraceSlowThreshold time.Duration
	// HistoryInterval is the health engine's sampling period (default
	// 2 s). The engine always runs on TCP nodes; the interval only tunes
	// its resolution.
	HistoryInterval time.Duration
	// FlightDir enables the flight recorder: on health transitions, slow
	// requests, and peer deaths the node dumps a JSON diagnostic bundle
	// there. Empty disables dumps.
	FlightDir string
	// FlightMinGap rate-limits flight-recorder dumps (default 10 s).
	FlightMinGap time.Duration
	// DataDir enables the durable on-disk store: blocks are written to a
	// WAL and compacted into segment files there, and the node's ring
	// identity persists so a restart rejoins with its old arc and every
	// block it held. Empty keeps the in-memory store (a crash loses local
	// state; replicas regenerate it).
	DataDir string
	// Fsync selects when acknowledged writes reach stable storage:
	// "always" (group-committed fsync per write, the default),
	// "interval" (timer-driven), or "never" (OS-paced; Flush/Close still
	// sync). Ignored without DataDir.
	Fsync string
	// FsyncInterval is the timer period under Fsync "interval" (default
	// 100 ms).
	FsyncInterval time.Duration
	// CheckpointBytes is the WAL size from which background compaction
	// into a segment file may run (default 64 MiB); it runs once half the
	// log is dead records.
	CheckpointBytes int64
}

// tracer builds the per-node (or per-client) request tracer. Every node
// gets one — with sampling off its cost is near zero — so TraceFetch and
// forced traces always work.
func (o NodeOptions) tracer(label string) *tracing.Tracer {
	return tracing.New(tracing.Config{
		Node:          label,
		SampleEvery:   o.TraceSampleEvery,
		SlowThreshold: o.TraceSlowThreshold,
	})
}

// replicas returns r, with the node's default applied.
func (o NodeOptions) replicas() int {
	if o.Replicas == 0 {
		return 3
	}
	return o.Replicas
}

func (o NodeOptions) toConfig(seed uint64) node.Config {
	if o.Seed != 0 {
		seed = o.Seed
	}
	return node.Config{
		Replicas:             o.Replicas,
		BalanceInterval:      o.BalanceInterval,
		PointerStabilization: o.PointerStabilization,
		RemoveDelay:          o.RemoveDelay,
		StabilizeInterval:    o.StabilizeInterval,
		RepairInterval:       o.RepairInterval,
		Seed:                 seed,
	}
}

// Cluster is an in-process DHT: every node runs in this process over an
// in-memory transport. It hosts the paper's 1,000-node deployment test on
// one machine and backs the examples.
type Cluster struct {
	net   *transport.MemNetwork
	nodes []*node.Node
	opts  NodeOptions
	reg   *obs.Registry
}

// NewCluster starts an in-process cluster of n nodes and waits, bounded by
// ctx, until the ring has settled: every node's predecessor and first
// min(r, n)-1 successors agree with ID order. A writer caches owner ranges
// from the ring it first sees; from a half-formed ring it would send
// blocks to nodes that do not own them.
//
// Nodes join in rounds, at most one per gap of the ring formed so far and
// through the node that will be its successor, so each join lookup answers
// in one hop from settled state and each gap closes in one stabilization
// round: 1,000 nodes settle in a dozen-odd rounds. Joining everyone at
// once through one seed leaves most successor pointers wrong, and Chord
// stabilization repairs them one hop per round.
func NewCluster(ctx context.Context, n int, opts NodeOptions) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("d2: cluster needs at least one node, got %d", n)
	}
	c := &Cluster{net: transport.NewMemNetwork(0), opts: opts, reg: obs.New()}
	// One RPCMetrics covers the whole in-process network (the cluster is
	// observed as a unit); each node still has its own registry.
	c.net.UseMetrics(transport.NewRPCMetrics(c.reg))
	for i := 0; i < n; i++ {
		c.nodes = append(c.nodes, c.startNode())
	}
	fail := func(err error) (*Cluster, error) {
		c.Close()
		return nil, err
	}
	joined := []*node.Node{c.nodes[0]}
	pending := append([]*node.Node(nil), c.nodes[1:]...)
	for len(pending) > 0 {
		// Ranks of rg index the sorted joined prefix; joiners append after it.
		slices.SortFunc(joined, func(a, b *node.Node) int { return a.Self().ID.Compare(b.Self().ID) })
		ids := make([]keys.Key, len(joined))
		for i, nd := range joined {
			ids[i] = nd.Self().ID
		}
		rg := ring.New(ids)
		gapTaken := make(map[int]bool)
		later := pending[:0]
		for _, nd := range pending {
			succ := rg.SuccessorIndex(nd.Self().ID)
			if gapTaken[succ] {
				later = append(later, nd)
				continue
			}
			gapTaken[succ] = true
			if err := nd.Join(ctx, joined[succ].Self().Addr); err != nil {
				return fail(fmt.Errorf("d2: add node: %w", err))
			}
			joined = append(joined, nd)
		}
		pending = later
		if err := waitSettled(ctx, joined, 2); err != nil {
			return fail(err)
		}
	}
	if err := waitSettled(ctx, c.nodes, opts.replicas()); err != nil {
		return fail(err)
	}
	return c, nil
}

// waitSettled polls until node.Settled(nodes, rep) holds or ctx ends.
func waitSettled(ctx context.Context, nodes []*node.Node, rep int) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for !node.Settled(nodes, rep) {
		select {
		case <-ctx.Done():
			return fmt.Errorf("d2: ring of %d nodes did not settle: %w", len(nodes), ctx.Err())
		case <-tick.C:
		}
	}
	return nil
}

// startNode starts the cluster's next node, not yet joined to the ring.
func (c *Cluster) startNode() *node.Node {
	ep := c.net.NewEndpoint()
	cfg := c.opts.toConfig(uint64(len(c.nodes) + 1))
	cfg.Tracer = c.opts.tracer(string(ep.Addr()))
	return node.Start(ep, cfg)
}

// AddNode starts one more node and joins it to the ring.
func (c *Cluster) AddNode(ctx context.Context) error {
	nd := c.startNode()
	if len(c.nodes) > 0 {
		if err := nd.Join(ctx, c.nodes[0].Self().Addr); err != nil {
			_ = nd.Close()
			return fmt.Errorf("d2: add node: %w", err)
		}
	}
	c.nodes = append(c.nodes, nd)
	return nil
}

// NumNodes returns the cluster size.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Seeds returns a few node addresses for clients.
func (c *Cluster) Seeds() []transport.Addr {
	var out []transport.Addr
	for i, nd := range c.nodes {
		out = append(out, nd.Self().Addr)
		if i == 2 {
			break
		}
	}
	return out
}

// StoredBytes returns each node's stored volume, for balance inspection.
func (c *Cluster) StoredBytes() []int64 {
	out := make([]int64, len(c.nodes))
	for i, nd := range c.nodes {
		out[i] = nd.StoredBytes()
	}
	return out
}

// CloseNode crashes the i-th node (for failure testing); the ring heals
// and replicas regenerate on the survivors.
func (c *Cluster) CloseNode(i int) error {
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("d2: no node %d", i)
	}
	return c.nodes[i].Close()
}

// Client creates a block-level client attached to the cluster.
func (c *Cluster) Client() (*Client, error) {
	inner, err := node.NewClient(c.net.NewEndpoint(), node.ClientConfig{
		Seeds:    c.Seeds(),
		Replicas: c.opts.replicas(),
		Tracer:   c.opts.tracer("client"),
	})
	if err != nil {
		return nil, fmt.Errorf("d2: client: %w", err)
	}
	return &Client{inner: inner}, nil
}

// MetricsSnapshot freezes the cluster's shared transport metrics (RPC
// counts, payload bytes, latency histograms across all in-process nodes).
func (c *Cluster) MetricsSnapshot() obs.Snapshot { return c.reg.Snapshot() }

// Close shuts down every node.
func (c *Cluster) Close() error {
	var firstErr error
	for _, nd := range c.nodes {
		if err := nd.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Node is a standalone DHT node on a TCP transport, for multi-process
// deployments (cmd/d2node wraps it).
type Node struct {
	inner  *node.Node
	tr     *transport.TCPTransport
	reg    *obs.Registry
	events *obs.EventLog
	engine *history.Engine
	store  *disk.Store // nil when running in-memory
}

// StartNode boots a TCP node bound to bind ("127.0.0.1:0" for an
// ephemeral port). If seed is non-empty the node joins that ring.
func StartNode(ctx context.Context, bind, seed string, opts NodeOptions) (*Node, error) {
	tr, err := transport.ListenTCP(bind)
	if err != nil {
		return nil, fmt.Errorf("d2: start node: %w", err)
	}
	// One registry covers the node and its transport, so a single scrape
	// (StatsReq or the admin HTTP page) sees both layers.
	reg := obs.New()
	events := obs.NewEventLog(1024)
	events.CountDrops(reg.Counter("d2_events_dropped_total"))
	tr.UseMetrics(transport.NewRPCMetrics(reg))
	cfg := opts.toConfig(0)
	cfg.Metrics = reg
	cfg.Events = events
	cfg.Tracer = opts.tracer(string(tr.Addr()))

	// With a data directory the node runs on the durable engine: WAL +
	// segment files + persistent ring identity, scraped through the same
	// registry as everything else.
	var ds *disk.Store
	if opts.DataDir != "" {
		policy, err := disk.ParseFsyncPolicy(opts.Fsync)
		if err != nil {
			_ = tr.Close()
			return nil, fmt.Errorf("d2: start node: %w", err)
		}
		ds, err = disk.Open(opts.DataDir, disk.Options{
			Fsync:           policy,
			FsyncInterval:   opts.FsyncInterval,
			CheckpointBytes: opts.CheckpointBytes,
			Metrics:         reg,
		})
		if err != nil {
			_ = tr.Close()
			return nil, fmt.Errorf("d2: start node: %w", err)
		}
		cfg.Store = ds
	}

	// The health engine samples the shared registry and answers HealthReq
	// and /healthz. The node itself can't depend on the engine's
	// lifecycle, so the wiring lives here.
	engine := history.New(history.Config{
		Registry:     reg,
		Events:       events,
		Sink:         cfg.Tracer.Sink(),
		Node:         string(tr.Addr()),
		Interval:     opts.HistoryInterval,
		FlightDir:    opts.FlightDir,
		FlightMinGap: opts.FlightMinGap,
	})
	cfg.Health = engine
	// Flight-recorder triggers ride the event stream: the node logs
	// slow.request (with the trace when sampled) and ring.drop_succ as
	// they happen, and health.transition comes from the engine itself
	// (Tick triggers directly, so no hook needed for it here).
	events.Notify(func(ev obs.Event) {
		switch ev.Name {
		case "slow.request":
			engine.Trigger("slow_request", ev.Fields, ev.Trace)
		case "ring.drop_succ":
			engine.Trigger("peer_dead", ev.Fields, ev.Trace)
		}
	})

	nd := node.Start(tr, cfg)
	engine.Start()
	if seed != "" {
		if err := nd.Join(ctx, transport.Addr(seed)); err != nil {
			engine.Close()
			_ = nd.Close()
			if ds != nil {
				_ = ds.Close()
			}
			return nil, fmt.Errorf("d2: join %s: %w", seed, err)
		}
	}
	return &Node{inner: nd, tr: tr, reg: reg, events: events, engine: engine, store: ds}, nil
}

// Addr returns the node's listen address.
func (n *Node) Addr() string { return string(n.inner.Self().Addr) }

// ID returns the node's ring position.
func (n *Node) ID() Key { return n.inner.Self().ID }

// StoredBytes returns the node's stored data volume.
func (n *Node) StoredBytes() int64 { return n.inner.StoredBytes() }

// Close stops the node. On a durable engine every acknowledged write is
// flushed and the store closed, so the next start recovers cleanly; on
// the in-memory store this is crash-style (replicas regenerate
// elsewhere).
func (n *Node) Close() error {
	if n.engine != nil {
		n.engine.Close()
	}
	err := n.inner.Close()
	if n.store != nil {
		if serr := n.store.Close(); err == nil {
			err = serr
		}
	}
	return err
}

// RecoveryStats describes what a durable node rebuilt from its data
// directory at startup.
type RecoveryStats struct {
	// Blocks and Pointers are the live entries recovered.
	Blocks, Pointers int
	// Records is the total log records replayed.
	Records int
	// TornRecords counts records discarded for failing checksum or
	// structural checks (a torn WAL tail after a crash).
	TornRecords int
}

// Recovery reports what the node recovered from its data directory
// (zero value when running in-memory).
func (n *Node) Recovery() RecoveryStats {
	if n.store == nil {
		return RecoveryStats{}
	}
	r := n.store.Recovery()
	return RecoveryStats{
		Blocks:      r.Blocks,
		Pointers:    r.Pointers,
		Records:     r.Records,
		TornRecords: r.TornRecords,
	}
}

// Health returns the node's current overall health state ("ok",
// "degraded", "failing").
func (n *Node) Health() string { return n.engine.State().String() }

// AdminHandler returns the node's admin/debug plane: Prometheus /metrics,
// /statsz (JSON snapshot), /eventz (structured event log), /tracez
// (retained request traces), /healthz (the health engine's status
// document), /historyz (the retained sample ring and derived rates),
// /censusz (the placement census's latest report), /ringz (the node's
// ring view), and net/http/pprof under /debug/pprof/.
// Serve it on a loopback or otherwise-protected port; it is
// unauthenticated.
func (n *Node) AdminHandler() http.Handler {
	mux := obs.NewMux(n.reg, n.events, n.inner.Tracer().Sink())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		st := n.engine.Status()
		w.Header().Set("Content-Type", "application/json")
		if st.State == "failing" {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
	})
	mux.HandleFunc("/historyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if r.URL.Query().Get("view") == "rates" {
			_ = enc.Encode(n.engine.Rates())
			return
		}
		_ = enc.Encode(n.engine.DumpHistory(0))
	})
	mux.HandleFunc("/censusz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(n.inner.Census().Snapshot())
	})
	mux.HandleFunc("/ringz", func(w http.ResponseWriter, r *http.Request) {
		pred, succs := n.inner.Neighbors()
		view := ringView{
			Self: peerView{ID: n.inner.Self().ID.Short(), Addr: string(n.inner.Self().Addr)},
			Pred: peerView{ID: pred.ID.Short(), Addr: string(pred.Addr)},
		}
		for _, s := range succs {
			view.Succs = append(view.Succs, peerView{ID: s.ID.Short(), Addr: string(s.Addr)})
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(view)
	})
	return mux
}

// peerView and ringView shape /ringz output.
type peerView struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

type ringView struct {
	Self  peerView   `json:"self"`
	Pred  peerView   `json:"pred"`
	Succs []peerView `json:"succs"`
}

// Leave departs gracefully, handing blocks to their new owners first.
// A durable node that means to come back should Close instead: Leave
// gives the arc away, Close keeps it on disk for the restart.
func (n *Node) Leave(ctx context.Context) error {
	if n.engine != nil {
		n.engine.Close()
	}
	err := n.inner.Leave(ctx)
	if n.store != nil {
		if serr := n.store.Close(); err == nil {
			err = serr
		}
	}
	return err
}

// ConnectTCP creates a client for a TCP cluster.
func ConnectTCP(seeds []string, replicas int) (*Client, error) {
	tr, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("d2: connect: %w", err)
	}
	addrs := make([]transport.Addr, len(seeds))
	for i, s := range seeds {
		addrs[i] = transport.Addr(s)
	}
	// The client's registry instruments its transport too, so one
	// snapshot covers cache behavior and per-RPC latency together.
	reg := obs.New()
	tr.UseMetrics(transport.NewRPCMetrics(reg))
	inner, err := node.NewClient(tr, node.ClientConfig{
		Seeds:    addrs,
		Replicas: replicas,
		Metrics:  reg,
		Tracer:   NodeOptions{}.tracer("client@" + string(tr.Addr())),
		Events:   obs.NewEventLog(256),
	})
	if err != nil {
		return nil, err
	}
	return &Client{inner: inner}, nil
}

// Client performs block operations against a D2 cluster, with the §5
// lookup cache. It also implements the volume block service.
type Client struct {
	inner *node.Client
}

// Put stores a block under key k with r replicas.
func (c *Client) Put(ctx context.Context, k Key, data []byte) error {
	return c.inner.Put(ctx, k, data)
}

// PutMany stores a batch of blocks (ks and data are parallel), grouping
// them by owner so each owner receives one RPC, appends the batch to its
// log once and fsyncs once. It returns nil only when every block was
// acknowledged. Volume.Sync and WriteStream use it automatically.
func (c *Client) PutMany(ctx context.Context, ks []Key, data [][]byte) error {
	return c.inner.PutMany(ctx, ks, data)
}

// Get fetches the block under key k.
func (c *Client) Get(ctx context.Context, k Key) ([]byte, error) {
	return c.inner.Get(ctx, k)
}

// GetMany fetches a batch of blocks, grouping keys by owner so one RPC
// covers a whole run of contiguous keys (a D2 file) per owner. Found
// blocks map key → data; absent keys are omitted.
func (c *Client) GetMany(ctx context.Context, ks []Key) (map[Key][]byte, error) {
	return c.inner.GetMany(ctx, ks)
}

// GetSegment fetches a streaming-read segment: GetMany's owner-grouped
// batching with a longer retry budget, tuned for consumers racing churn
// (a mid-stream node kill re-resolves the moved keys instead of dropping
// the stream). Volume.ReadStream uses it automatically.
func (c *Client) GetSegment(ctx context.Context, ks []Key) (map[Key][]byte, error) {
	return c.inner.GetSegment(ctx, ks)
}

// StreamStats reports a stream's TTFB, delivered bytes, stalls, and
// adaptive-window trajectory; ReadStream's reader implements StatStream.
type StreamStats = fs.StreamStats

// StatStream is the interface ReadStream's io.ReadCloser also satisfies.
type StatStream = fs.StatStream

// RangeEntry is one block returned by ReadRange, in key order.
type RangeEntry = node.RangeEntry

// ReadRange reads every block in the circular arc (lo, hi] — for
// locality-preserving keys, a whole file or directory subtree — issuing
// about one RPC per owning node.
func (c *Client) ReadRange(ctx context.Context, lo, hi Key) ([]RangeEntry, error) {
	return c.inner.ReadRange(ctx, lo, hi)
}

// RPCs returns the total RPCs this client has issued (reads, writes, and
// lookups), for measuring the batched read path.
func (c *Client) RPCs() uint64 { return c.inner.RPCs() }

// Remove deletes the block under key k (after the node-side delay).
func (c *Client) Remove(ctx context.Context, k Key) error {
	return c.inner.Remove(ctx, k)
}

// CacheStats returns the lookup cache's hit and miss counts.
func (c *Client) CacheStats() (hits, misses uint64) { return c.inner.Stats() }

// TraceSpan is an in-flight span handle returned by StartTrace.
type TraceSpan = tracing.ActiveSpan

// TraceRecord is one completed span, as fetched by FetchClusterTrace.
type TraceRecord = tracing.Span

// SetTraceSampling reconfigures the client's tracer at runtime: keep the
// trace of 1 in every `every` operations (0 disables head sampling), and
// always keep operations at least `slow` long (0 disables the slow-path
// escape hatch).
func (c *Client) SetTraceSampling(every int, slow time.Duration) {
	t := c.inner.Tracer()
	t.SetSampleEvery(every)
	t.SetSlowThreshold(slow)
}

// StartTrace opens a force-sampled root span: every client operation made
// with the returned context joins the trace regardless of sampling. End
// the span, then pass its TraceID to FetchClusterTrace to assemble the
// cross-node tree (d2ctl trace drives exactly this).
func (c *Client) StartTrace(ctx context.Context, name string) (context.Context, *TraceSpan) {
	return c.inner.Tracer().ForceOp(ctx, name)
}

// FetchClusterTrace scrapes every ring member (plus the client's own
// sink) for spans of the given trace and returns them sorted by start
// time; feed the result to tracing.Assemble / WriteTree / WriteChromeTrace.
func (c *Client) FetchClusterTrace(ctx context.Context, trace uint64) ([]TraceRecord, error) {
	return c.inner.FetchClusterTrace(ctx, trace)
}

// TraceSpans snapshots the spans retained in the client's local sink
// (roots it sampled plus child spans of its own operations).
func (c *Client) TraceSpans() []TraceRecord { return c.inner.Tracer().Sink().Spans() }

// MetricsSnapshot freezes the client's own metrics (lookup cache, RPCs,
// per-RPC latency when on TCP).
func (c *Client) MetricsSnapshot() obs.Snapshot { return c.inner.Metrics().Snapshot() }

// NodeStats is one cluster node's scraped load and metrics state.
type NodeStats = node.NodeStats

// RingMember is one node discovered by a ring walk.
type RingMember = node.RingMember

// WalkRing enumerates the ring in successor order from the first
// reachable seed.
func (c *Client) WalkRing(ctx context.Context) ([]RingMember, error) {
	return c.inner.WalkRing(ctx)
}

// ClusterStats scrapes every ring member's metrics snapshot and load
// accounting (the d2ctl stats/top data source).
func (c *Client) ClusterStats(ctx context.Context) ([]NodeStats, error) {
	return c.inner.ClusterStats(ctx)
}

// NodeHealth is one ring member's scraped health state.
type NodeHealth = node.NodeHealth

// ClusterReport is the doctor's cluster-level health document.
type ClusterReport = history.ClusterReport

// ClusterHealth scrapes every ring member's health verdict, status, and
// derived rates (the d2ctl watch data source).
func (c *Client) ClusterHealth(ctx context.Context) ([]NodeHealth, error) {
	return c.inner.ClusterHealth(ctx)
}

// ClusterDoctor gathers cluster health and evaluates cluster-level
// checks — §10 load imbalance plus every member's failing or degraded
// check, naming the node responsible (the d2ctl doctor data source).
func (c *Client) ClusterDoctor(ctx context.Context) (ClusterReport, error) {
	return c.inner.ClusterReport(ctx)
}

// NodeCensus is one ring member's placement-census report.
type NodeCensus = node.NodeCensus

// CensusReport is a single node's placement census (blocks and bytes by
// role, per-volume run-length histograms).
type CensusReport = census.Report

// ClusterCensusReport is the merged cluster-wide census with the §5
// locality score, per-volume fragmentation ratios, §10 load imbalance,
// and replica-placement spread.
type ClusterCensusReport = census.Cluster

// ClusterCensus scrapes every ring member's placement census and merges
// the reports into cluster-wide placement metrics (the d2ctl frag/map
// data source).
func (c *Client) ClusterCensus(ctx context.Context) ([]NodeCensus, *ClusterCensusReport, error) {
	return c.inner.ClusterCensus(ctx)
}

// Close releases the client.
func (c *Client) Close() error { return c.inner.Close() }

// CreateVolume publishes a new file-system volume signed by priv. The
// volume reports block IO into the client's registry unless opts.Metrics
// overrides it.
func (c *Client) CreateVolume(ctx context.Context, name string, priv ed25519.PrivateKey, opts VolumeOptions) (*Volume, error) {
	if opts.Metrics == nil {
		opts.Metrics = c.inner.Metrics()
	}
	return fs.Create(ctx, c, name, priv, opts)
}

// OpenVolume attaches to an existing volume; pass priv to write, nil to
// read.
func (c *Client) OpenVolume(ctx context.Context, name string, pub ed25519.PublicKey, priv ed25519.PrivateKey, opts VolumeOptions) (*Volume, error) {
	if opts.Metrics == nil {
		opts.Metrics = c.inner.Metrics()
	}
	return fs.Open(ctx, c, name, pub, priv, opts)
}

var _ fs.BlockService = (*Client)(nil)
var _ fs.BatchBlockService = (*Client)(nil)
var _ fs.BatchPutBlockService = (*Client)(nil)
var _ fs.SegmentBlockService = (*Client)(nil)
