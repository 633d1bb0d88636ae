// Package node implements a live D2 DHT node: ring membership with
// successor-list stabilization, iterative lookups over small-world links,
// replication on the r successors of each key, Karger–Ruhl load balancing
// through voluntary leave/rejoin with block pointers (§6), pointer
// stabilization, delayed removal (§3), and TTL expiry. Nodes communicate
// over any transport.Transport; the in-memory transport runs a 1,000-node
// cluster in one process.
package node

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs"
	"github.com/defragdht/d2/internal/obs/census"
	"github.com/defragdht/d2/internal/obs/history"
	"github.com/defragdht/d2/internal/obs/tracing"
	"github.com/defragdht/d2/internal/store"
	"github.com/defragdht/d2/internal/transport"
)

// Config holds node parameters; zero values take defaults suited to live
// operation (tests shorten the intervals).
type Config struct {
	// ID is the node's ring position; zero picks a random one.
	ID keys.Key
	// Replicas is r (default 3).
	Replicas int
	// SuccListLen is the successor-list length (default max(r, 4)).
	SuccListLen int
	// StabilizeInterval drives ring maintenance (default 500 ms).
	StabilizeInterval time.Duration
	// RepairInterval paces the maintenance round — census, replica
	// repair, hand-off and pointer stabilization (default 5 s).
	RepairInterval time.Duration
	// BalanceInterval is the load-balance probe period; zero disables
	// balancing (the paper uses 10 min).
	BalanceInterval time.Duration
	// BalanceThreshold is t (default 4).
	BalanceThreshold float64
	// PointerStabilization is how long pointers are held before fetching
	// (default 1 h; §8.1).
	PointerStabilization time.Duration
	// RemoveDelay postpones removals (default 30 s; §3).
	RemoveDelay time.Duration
	// DefaultTTL is applied to blocks stored without an explicit TTL
	// (zero = no expiry).
	DefaultTTL time.Duration
	// MaxLinks caps the long-link table (default 16).
	MaxLinks int
	// Seed drives ID choice and sampling.
	Seed uint64
	// Metrics is the node's registry; nil creates a fresh one per node
	// (d2node shares its registry with the transport so one admin page
	// covers both layers).
	Metrics *obs.Registry
	// Events receives the node's structured event log; nil disables
	// event logging (obs.EventLog is nil-safe).
	Events *obs.EventLog
	// Tracer records request spans for sampled traces; nil disables
	// tracing (the tracing API is nil-safe). Start also attaches it to
	// the transport when the transport supports per-endpoint tracers.
	Tracer *tracing.Tracer
	// Health is the node's cluster-health engine; when set, HealthReq
	// RPCs answer with its status and rates documents (nil nodes answer
	// State "unknown"). The engine's lifecycle belongs to the caller.
	Health *history.Engine
	// Store is the node's block store; nil creates an in-memory one. The
	// engine's lifecycle belongs to the caller (Close flushes but does
	// not close it). An engine that also implements store.IdentityStore
	// gives the node a persistent ring identity: a persisted ID is
	// preferred over a random one, so a restarted node rejoins with its
	// old arc intact, and the ID is re-persisted after balance moves.
	Store store.Engine
}

func (c *Config) applyDefaults() {
	if c.Replicas == 0 {
		c.Replicas = 3
	}
	if c.SuccListLen == 0 {
		c.SuccListLen = c.Replicas
		if c.SuccListLen < 4 {
			c.SuccListLen = 4
		}
	}
	if c.StabilizeInterval == 0 {
		c.StabilizeInterval = 500 * time.Millisecond
	}
	if c.RepairInterval == 0 {
		c.RepairInterval = 5 * time.Second
	}
	if c.BalanceThreshold == 0 {
		c.BalanceThreshold = 4
	}
	if c.PointerStabilization == 0 {
		c.PointerStabilization = time.Hour
	}
	if c.RemoveDelay == 0 {
		c.RemoveDelay = 30 * time.Second
	}
	if c.MaxLinks == 0 {
		c.MaxLinks = 16
	}
}

// Node is one live DHT participant.
type Node struct {
	cfg Config
	tr  transport.Transport
	st  store.Engine

	mu    sync.Mutex
	self  transport.PeerInfo
	pred  transport.PeerInfo
	succs []transport.PeerInfo
	links []transport.PeerInfo
	rng   *rand.Rand
	// lastSplit records the median most recently handed to a balance
	// prober, so concurrent probers cannot all be told the same split
	// point and rejoin with identical IDs.
	lastSplit   keys.Key
	lastSplitAt time.Time

	stop chan struct{}
	wg   sync.WaitGroup
	// removeTimers tracks pending delayed removals so Close cancels them.
	removeTimers map[keys.Key]*time.Timer

	reg     *obs.Registry
	metrics *nodeMetrics
	events  *obs.EventLog
	tracer  *tracing.Tracer
	census  *census.Sweeper
}

// Start creates a node on the transport and begins serving. The node
// initially forms a one-node ring; call Join to enter an existing one.
func Start(tr transport.Transport, cfg Config) *Node {
	cfg.applyDefaults()
	seed := cfg.Seed
	if seed == 0 {
		// Seed 0 means "random per node". Deriving it from the PCG
		// default would give every node the same "random" ID — separate
		// d2node processes would all join the ring at one position.
		var b [8]byte
		if _, err := crand.Read(b[:]); err == nil {
			seed = binary.LittleEndian.Uint64(b[:])
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x4e4f4445)) // "NODE"
	st := cfg.Store
	if st == nil {
		st = store.New()
	}
	id := cfg.ID
	if id.IsZero() {
		// A durable engine may hold the identity of the node's previous
		// life; adopting it lets the node rejoin the ring on its old arc,
		// with every block it recovered still primary where it was.
		if is, ok := st.(store.IdentityStore); ok {
			if saved, found := is.LoadIdentity(); found {
				id = saved
			}
		}
	}
	if id.IsZero() {
		id = keys.Random(rng)
	}
	if is, ok := st.(store.IdentityStore); ok {
		_ = is.SaveIdentity(id)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.New()
	}
	n := &Node{
		cfg:          cfg,
		tr:           tr,
		st:           st,
		self:         transport.PeerInfo{ID: id, Addr: tr.Addr()},
		rng:          rng,
		stop:         make(chan struct{}),
		removeTimers: make(map[keys.Key]*time.Timer),
		reg:          reg,
		events:       cfg.Events,
		tracer:       cfg.Tracer,
	}
	n.metrics = newNodeMetrics(reg, n)
	n.census = census.New(census.Config{
		Store:      st,
		Bounds:     n.censusBounds,
		Registry:   reg,
		StaleAfter: cfg.PointerStabilization,
	})
	n.succs = []transport.PeerInfo{n.self}
	if cfg.Tracer != nil {
		if ut, ok := tr.(interface{ UseTracer(*tracing.Tracer) }); ok {
			ut.UseTracer(cfg.Tracer)
		}
	}
	tr.Serve(n.handle)
	n.startLoops()
	return n
}

func (n *Node) startLoops() {
	n.loop(n.cfg.StabilizeInterval, n.stabilize)
	n.loop(n.cfg.RepairInterval, n.maintain)
	// The TTL sweep is a write-locked scan; it keeps its own slow cadence
	// instead of riding the (read-locked) maintenance walk.
	n.loop(time.Minute, func() {
		if dropped := n.st.SweepExpired(time.Now()); dropped > 0 {
			n.metrics.expired.Add(uint64(dropped))
		}
	})
	if n.cfg.BalanceInterval > 0 {
		n.loop(n.cfg.BalanceInterval, n.balanceProbe)
	}
}

// loop runs fn every interval until the node closes.
func (n *Node) loop(interval time.Duration, fn func()) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-n.stop:
				return
			case <-t.C:
				fn()
			}
		}
	}()
}

// Self returns the node's identity.
func (n *Node) Self() transport.PeerInfo {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.self
}

// Predecessor returns the current predecessor (zero if unknown).
func (n *Node) Predecessor() transport.PeerInfo {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pred
}

// Successor returns the first successor.
func (n *Node) Successor() transport.PeerInfo {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.succs[0]
}

// Store exposes the local block store (read-mostly, for tests and tools).
func (n *Node) Store() store.Engine { return n.st }

// Neighbors returns the node's ring view: predecessor and a copy of the
// successor list (for the admin plane's /ringz).
func (n *Node) Neighbors() (pred transport.PeerInfo, succs []transport.PeerInfo) {
	n.mu.Lock()
	defer n.mu.Unlock()
	succs = make([]transport.PeerInfo, len(n.succs))
	copy(succs, n.succs)
	return n.pred, succs
}

// Metrics returns the node's registry (for the admin plane and tests).
func (n *Node) Metrics() *obs.Registry { return n.reg }

// Events returns the node's event log (nil when disabled).
func (n *Node) Events() *obs.EventLog { return n.events }

// Tracer returns the node's request tracer (nil when disabled).
func (n *Node) Tracer() *tracing.Tracer { return n.tracer }

// StoredBytes returns the node's stored data volume.
func (n *Node) StoredBytes() int64 { return n.st.Bytes() }

// RespBytes returns the node's primary-responsibility load: the bytes
// (including pointers) in its (pred, self] range (§6).
func (n *Node) RespBytes() int64 {
	n.mu.Lock()
	pred, self := n.pred, n.self
	n.mu.Unlock()
	if pred.IsZero() {
		return n.st.Bytes()
	}
	return n.st.ArcBytes(pred.ID, self.ID)
}

// Census returns the node's placement-census sweeper, for the admin
// plane and tests.
func (n *Node) Census() *census.Sweeper { return n.census }

// censusBounds is the node's current ring position, against which the
// census classifies entries as primary or replica and the maintenance
// round picks what to repair and hand off.
func (n *Node) censusBounds() census.Bounds {
	n.mu.Lock()
	self, pred := n.self, n.pred
	n.mu.Unlock()
	return census.Bounds{Self: self.ID, Pred: pred.ID, Ok: true}
}

// Join enters the ring known to the seed address.
func (n *Node) Join(ctx context.Context, seed transport.Addr) error {
	n.mu.Lock()
	id := n.self.ID
	n.mu.Unlock()
	owner, pred, err := n.iterLookup(ctx, seed, id)
	if err != nil {
		return fmt.Errorf("node: join via %s: %w", seed, err)
	}
	if owner.Addr == n.tr.Addr() {
		// The lookup terminated on ourselves: a durable node restarting
		// before the ring forgot its previous incarnation is reachable
		// at its old address with its old ID, so stale links route the
		// join lookup straight back to the joiner — which, as a
		// singleton, claims its own key. Adopting that answer would
		// leave us a one-node ring forever. Link via the seed instead;
		// stabilization walks us to our true position within a few
		// rounds.
		resp, perr := transport.Expect[*transport.PingResp](
			n.call(ctx, seed, &transport.PingReq{}))
		if perr != nil {
			return fmt.Errorf("node: join via %s: %w", seed, perr)
		}
		owner, pred = resp.Self, transport.PeerInfo{}
	}
	n.mu.Lock()
	n.pred = pred
	if owner.Addr != n.self.Addr {
		n.succs = append([]transport.PeerInfo{owner}, n.succs...)
		n.trimSuccsLocked()
	}
	n.mu.Unlock()
	// Announce ourselves so the ring links in quickly.
	_, _ = transport.Expect[*transport.NotifyResp](
		n.call(ctx, owner.Addr, &transport.NotifyReq{Cand: n.Self()}))
	n.stabilize()
	return nil
}

// Close stops background loops and the transport. Data is not handed off:
// the replica repair of surviving nodes restores redundancy, exactly as
// with a crash.
func (n *Node) Close() error {
	select {
	case <-n.stop:
		return nil // already closed
	default:
	}
	close(n.stop)
	n.mu.Lock()
	for _, t := range n.removeTimers {
		t.Stop()
	}
	n.removeTimers = map[keys.Key]*time.Timer{}
	n.mu.Unlock()
	err := n.tr.Close()
	n.wg.Wait()
	// Clean-shutdown barrier: every acknowledged write reaches stable
	// storage before the process may exit (no-op for volatile engines).
	if ferr := n.st.Flush(); err == nil {
		err = ferr
	}
	return err
}

// Leave performs a graceful departure: push every stored data block to
// the node now responsible for it, then close. Blocks of our own range
// stay with the replicas our successors already hold.
func (n *Node) Leave(ctx context.Context) error {
	self := n.Self().ID
	var ks []keys.Key
	n.st.ArcVisit(self, self, func(k keys.Key, m store.Meta) bool {
		if !m.IsPointer() {
			ks = append(ks, k)
		}
		return true
	})
	n.pushToOwners(ctx, n.undoomed(ks), func([]keys.Key) {})
	return n.Close()
}

// call is the node's outbound RPC helper with a default timeout.
func (n *Node) call(ctx context.Context, to transport.Addr, req transport.Message) (transport.Message, error) {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
	}
	return n.tr.Call(ctx, to, req)
}
