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
	"github.com/defragdht/d2/internal/ring"
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
	// StabilizeInterval paces the timer rounds of ring maintenance, the
	// path that notices failed neighbours (default 500 ms). A change of a
	// neighbour view runs a round at once as well (see kick).
	StabilizeInterval time.Duration
	// RepairInterval paces the maintenance round — census, replica
	// repair, hand-off and pointer stabilization (default 5 s).
	RepairInterval time.Duration
	// BalanceInterval is the load-balance probe period; zero disables
	// balancing (the paper uses 10 min).
	BalanceInterval time.Duration
	// PointerStabilization is how long pointers are held before fetching
	// (default 1 h; §8.1).
	PointerStabilization time.Duration
	// RemoveDelay postpones removals (default 30 s; §3).
	RemoveDelay time.Duration
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
	if c.StabilizeInterval == 0 {
		c.StabilizeInterval = 500 * time.Millisecond
	}
	if c.RepairInterval == 0 {
		c.RepairInterval = 5 * time.Second
	}
	if c.PointerStabilization == 0 {
		c.PointerStabilization = time.Hour
	}
	if c.RemoveDelay == 0 {
		c.RemoveDelay = 30 * time.Second
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
	// lastSuccs is the successor list the last completed stabilization
	// round ended with; a round that ends with another one tells its
	// predecessor, whose list is built from ours.
	lastSuccs []transport.PeerInfo
	// lastSplit records the median most recently handed to a balance
	// prober, so concurrent probers cannot all be told the same split
	// point and rejoin with identical IDs.
	lastSplit   keys.Key
	lastSplitAt time.Time

	// kicks asks the stabilize loop for a round now; one pending kick
	// stands for any number.
	kicks chan struct{}
	stop  chan struct{}
	wg    sync.WaitGroup

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
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.New()
	}
	n := &Node{
		cfg:    cfg,
		tr:     tr,
		st:     st,
		self:   transport.PeerInfo{ID: id, Addr: tr.Addr()},
		rng:    rng,
		kicks:  make(chan struct{}, 1),
		stop:   make(chan struct{}),
		reg:    reg,
		events: cfg.Events,
		tracer: cfg.Tracer,
	}
	n.metrics = newNodeMetrics(reg, n)
	n.saveIdentity(id)
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

// saveIdentity persists the node's ring ID when its engine can. The node
// keeps running on id either way — a failed save only means a restart
// rejoins at the ID saved before — so a failure is counted and logged
// rather than returned.
func (n *Node) saveIdentity(id keys.Key) {
	is, ok := n.st.(store.IdentityStore)
	if !ok {
		return
	}
	if err := is.SaveIdentity(id); err != nil {
		n.metrics.identitySaveErrors.Inc()
		n.events.Log(obs.LevelWarn, "identity.save_error", "id", id.Short(), "err", err.Error())
	}
}

func (n *Node) startLoops() {
	n.stabilizeLoop()
	n.loop(n.cfg.RepairInterval, n.maintain)
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

// kickFloor spaces the rounds that kicks run, so a flapping neighbour
// view costs at most one round per floor.
const kickFloor = 5 * time.Millisecond

// kick asks the stabilize loop for a round now, without waiting for it.
func (n *Node) kick() {
	select {
	case n.kicks <- struct{}{}:
	default:
	}
}

// stabilizeLoop runs a stabilization round every StabilizeInterval — the
// path that notices failed neighbours — and another whenever a change to
// the neighbour view kicks it, at most one per kickFloor. Each round is
// counted by its cause.
func (n *Node) stabilizeLoop() {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		t := time.NewTicker(n.cfg.StabilizeInterval)
		defer t.Stop()
		var last time.Time
		for {
			rounds := n.metrics.timerRounds
			select {
			case <-n.stop:
				return
			case <-t.C:
			case <-n.kicks:
				rounds = n.metrics.eventRounds
				time.Sleep(kickFloor - time.Since(last))
			}
			rounds.Inc()
			last = time.Now()
			n.stabilize()
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

// Settled reports whether nodes form a settled ring under ring.Settled:
// in ID order, each node's predecessor and its first min(rep, n)-1
// successors are the nodes around it.
func Settled(nodes []*Node, rep int) bool {
	views := make([]ring.View, len(nodes))
	for i, nd := range nodes {
		pred, succs := nd.Neighbors()
		views[i] = ring.View{Self: nd.Self().ID, Pred: pred.ID}
		for _, s := range succs {
			views[i].Succs = append(views[i].Succs, s.ID)
		}
	}
	return ring.Settled(views, rep)
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

// Join enters the ring known to the seed address. It returns once the
// joiner's successor and predecessor have taken it in; the nodes before it
// learn it within a few round trips (see linkIn). The lookup for our own
// ID avoids our own address: a node restarting at its persisted ID may
// still be named by the ring as its old incarnation, and the node before
// that one then answers with the successor after it.
func (n *Node) Join(ctx context.Context, seed transport.Addr) error {
	self := n.Self()
	owner, pred, err := lookup(ctx, self.ID, []transport.Addr{seed}, []transport.Addr{self.Addr}, n.metrics.lookupHops, n.hop)
	if err != nil {
		return fmt.Errorf("node: join via %s: %w", seed, err)
	}
	n.linkIn(ctx, self, pred, []transport.PeerInfo{owner})
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
	n.pushToOwners(ctx, ks, func([]keys.Key) {})
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
