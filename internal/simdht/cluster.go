// Package simdht simulates a complete D2 cluster over virtual time: block
// placement and replication on a DHT ring, replica regeneration after
// failures under a per-node migration bandwidth limit, and the
// Karger–Ruhl/Mercury active load balancer with block pointers (§6). The
// same cluster runs the traditional and traditional-file baselines by
// swapping the placement strategy and disabling balancing, as the paper's
// prototype does (§7).
package simdht

import (
	"fmt"
	"math/rand/v2"
	"time"

	"github.com/defragdht/d2/internal/btree"
	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs"
	"github.com/defragdht/d2/internal/obs/tracing"
	"github.com/defragdht/d2/internal/ring"
	"github.com/defragdht/d2/internal/sim"
)

// Config holds the cluster parameters; zero values take the paper's
// defaults (§8.1).
type Config struct {
	// Nodes is the cluster size.
	Nodes int
	// Replicas is r, the copies per block (default 3).
	Replicas int
	// Balance enables the active load balancer (off for the traditional
	// baselines unless testing Traditional+Merc).
	Balance bool
	// BalanceThreshold is t: a probe relocates the prober when the
	// probed node's load exceeds t times its own (default 4).
	BalanceThreshold float64
	// ProbeInterval is the per-node load-balance probe period
	// (default 10 min).
	ProbeInterval time.Duration
	// UsePointers defers data movement on voluntary moves (default on;
	// disable only for the pointer ablation). Set DisablePointers to turn
	// off.
	DisablePointers bool
	// PointerStabilization is how long a pointer is held before the
	// pointing node fetches the block (default 1 h).
	PointerStabilization time.Duration
	// MigrationBPS is the per-node bandwidth limit on data migration and
	// replica regeneration (default 750 kbps).
	MigrationBPS int64
	// UserWriteBPS is each user's write bandwidth (default 1500 kbps).
	UserWriteBPS int64
	// RemoveDelay postpones block removal (default 30 s, §3).
	RemoveDelay time.Duration
	// FetchRetry is the wait before retrying a regeneration fetch that
	// found no live source (default 5 min).
	FetchRetry time.Duration
	// Seed drives node ID assignment and probe randomness.
	Seed uint64
	// Metrics is the cluster's registry; nil creates a fresh one. The
	// simulator reports through the same obs counters as the live node so
	// experiment output and live scrapes share a vocabulary.
	Metrics *obs.Registry
	// Trace, when non-nil, receives one span per completed block transfer
	// (regeneration, rebalance, and pointer-stabilization fetches) stamped
	// with simulated time, so a run's migration timeline exports as a
	// Perfetto-loadable Chrome trace (d2sim -trace).
	Trace *tracing.Sink
}

func (c *Config) applyDefaults() {
	if c.Replicas == 0 {
		c.Replicas = 3
	}
	if c.BalanceThreshold == 0 {
		c.BalanceThreshold = 4
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 10 * time.Minute
	}
	if c.PointerStabilization == 0 {
		c.PointerStabilization = time.Hour
	}
	if c.MigrationBPS == 0 {
		c.MigrationBPS = 750_000
	}
	if c.UserWriteBPS == 0 {
		c.UserWriteBPS = 1_500_000
	}
	if c.RemoveDelay == 0 {
		c.RemoveDelay = 30 * time.Second
	}
	if c.FetchRetry == 0 {
		c.FetchRetry = 5 * time.Minute
	}
}

// Node is one simulated DHT node.
type Node struct {
	// Idx is the node's stable index (its identity across ID changes).
	Idx int
	// ID is the node's current position on the ring.
	ID keys.Key
	// Up reports whether the node is alive.
	Up bool
	// HeldBytes is the actual stored volume (replicas the node holds).
	HeldBytes int64
	// RespBytes is the primary responsibility: bytes of blocks whose key
	// falls in the node's (pred, id] range, whether stored or pointed-to.
	// The balancer compares these (§6 uses primary load).
	RespBytes int64

	held map[int32]struct{}
	// ptrs and fetch index the node's block pointers and in-flight fetches
	// by block handle, mirroring the per-block pointer/fetching lists so
	// membership tests are O(1) on the resync hot path.
	ptrs  map[int32]struct{}
	fetch map[int32]struct{}
	link  *sim.Link
}

// ptrRef records that node holds a pointer for a block, targeting the
// node that actually stores it.
type ptrRef struct {
	node   int
	target int
}

type blockMeta struct {
	key      keys.Key
	size     int32
	holders  []int32
	pointers []ptrRef
	fetching []int32
	live     bool
}

// Cluster is the simulated DHT.
type Cluster struct {
	Eng *sim.Engine
	cfg Config
	rng *rand.Rand

	nodes []*Node
	// ring holds the up nodes' IDs and nodeAt, rank for rank, the node at
	// each position. rankByNode maps node index → current rank (-1 when
	// the node is not a member), maintained on every membership change so
	// a member's own rank never needs a binary search.
	ring       ring.Ring
	nodeAt     []int
	rankByNode []int

	global btree.Tree[int32]
	blocks []blockMeta
	free   []int32
	byKey  map[keys.Key]int32

	// Scratch buffers reused across events to keep the per-event resync
	// path allocation-free. Values returned by replicaNodes alias
	// repScratch and are only valid until the next replicaNodes call.
	repScratch   []int
	pendScratch  []int32
	extraScratch []int32
	dropScratch  []int32

	userLinks map[int32]*sim.Link

	reg *obs.Registry
	// migratedBytes counts all regeneration + rebalance transfer bytes
	// (Table 4's L); writtenBytes counts user-written bytes (Table 4's W);
	// moves counts voluntary ID changes performed by the balancer.
	migratedBytes *obs.Counter
	writtenBytes  *obs.Counter
	moves         *obs.Counter
}

// MigratedBytes returns the total regeneration + rebalance transfer bytes
// (Table 4's L).
func (c *Cluster) MigratedBytes() int64 { return int64(c.migratedBytes.Value()) }

// WrittenBytes returns the total user-written bytes (Table 4's W).
func (c *Cluster) WrittenBytes() int64 { return int64(c.writtenBytes.Value()) }

// Moves returns the voluntary ID changes performed by the balancer.
func (c *Cluster) Moves() int64 { return int64(c.moves.Value()) }

// Metrics returns the cluster's registry.
func (c *Cluster) Metrics() *obs.Registry { return c.reg }

// New creates a cluster of cfg.Nodes up nodes with uniformly random IDs.
func New(eng *sim.Engine, cfg Config) *Cluster {
	cfg.applyDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.New()
	}
	c := &Cluster{
		Eng:           eng,
		cfg:           cfg,
		rng:           rand.New(rand.NewPCG(cfg.Seed, 0x53494d44)), // "SIMD"
		byKey:         make(map[keys.Key]int32),
		userLinks:     make(map[int32]*sim.Link),
		reg:           reg,
		migratedBytes: reg.Counter("d2_sim_migrated_bytes_total"),
		writtenBytes:  reg.Counter("d2_sim_written_bytes_total"),
		moves:         reg.Counter("d2_sim_balance_moves_total"),
	}
	c.rankByNode = make([]int, cfg.Nodes)
	for i := range c.rankByNode {
		c.rankByNode[i] = -1
	}
	for i := 0; i < cfg.Nodes; i++ {
		n := &Node{
			Idx:   i,
			Up:    true,
			held:  make(map[int32]struct{}),
			ptrs:  make(map[int32]struct{}),
			fetch: make(map[int32]struct{}),
			link:  sim.NewLink(eng, cfg.MigrationBPS),
		}
		for {
			n.ID = keys.Random(c.rng)
			if _, taken := c.ring.Rank(n.ID); !taken {
				break
			}
			// Collision in a 512-bit space: effectively unreachable, but
			// IDs must be unique.
		}
		c.nodes = append(c.nodes, n)
		c.insertMember(n)
	}
	if cfg.Balance {
		c.startBalancers()
	}
	return c
}

// Config returns the cluster configuration (with defaults applied).
func (c *Cluster) Config() Config { return c.cfg }

// Nodes returns the cluster's nodes, indexed by stable node index.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// NumBlocks returns the number of live blocks.
func (c *Cluster) NumBlocks() int { return c.global.Len() }

// memberRank returns the node's current rank on the ring, or -1 when the
// node is not a member.
func (c *Cluster) memberRank(n *Node) int { return c.rankByNode[n.Idx] }

// replicaNodes returns the node indices of the r members succeeding key k.
// The returned slice aliases a scratch buffer valid only until the next
// replicaNodes call; callers that nest resync operations must copy it.
func (c *Cluster) replicaNodes(k keys.Key) []int {
	out := c.ring.AppendReplicas(c.repScratch[:0], k, c.cfg.Replicas)
	for i, rank := range out {
		out[i] = c.nodeAt[rank]
	}
	c.repScratch = out
	return out
}

// ownerNode returns the node index primarily responsible for key k, or -1
// if the ring is empty.
func (c *Cluster) ownerNode(k keys.Key) int {
	if c.ring.Len() == 0 {
		return -1
	}
	return c.nodeAt[c.ring.SuccessorIndex(k)]
}

// insertMember adds the node to the ring (no resync).
func (c *Cluster) insertMember(n *Node) {
	i, err := c.ring.Add(n.ID)
	if err != nil {
		panic(fmt.Sprintf("simdht: %v", err))
	}
	c.nodeAt = append(c.nodeAt, 0)
	copy(c.nodeAt[i+1:], c.nodeAt[i:])
	c.nodeAt[i] = n.Idx
	for j := i; j < len(c.nodeAt); j++ {
		c.rankByNode[c.nodeAt[j]] = j
	}
}

// deleteMember removes the node from the ring (no resync).
func (c *Cluster) deleteMember(n *Node) {
	i := c.memberRank(n)
	if j, err := c.ring.Remove(n.ID); err != nil || j != i || c.nodeAt[i] != n.Idx {
		panic(fmt.Sprintf("simdht: removing absent member %s", n.ID.Short()))
	}
	c.nodeAt = append(c.nodeAt[:i], c.nodeAt[i+1:]...)
	c.rankByNode[n.Idx] = -1
	for j := i; j < len(c.nodeAt); j++ {
		c.rankByNode[c.nodeAt[j]] = j
	}
}

// affectedArc returns the key arc whose replica groups changed after a
// membership change at position x: (lo, x], where lo is the replica floor
// of x's rank — x's own if x joined, its successor's if x left (x's keys
// now belong to that successor, and the groups changed for the same arc
// ending at x). Call it after the mutation. When the ring is too small the
// whole ring is affected (lo == hi).
func (c *Cluster) affectedArc(x keys.Key) (lo, hi keys.Key) {
	if c.ring.Len() == 0 {
		return x, x
	}
	i := c.ring.SuccessorIndex(x)
	if lo = c.ring.Floor(i, c.cfg.Replicas); lo.Equal(c.ring.At(i)) {
		return x, x
	}
	return lo, x
}

// recomputeResp recalculates a node's primary responsibility bytes by
// scanning its range.
func (c *Cluster) recomputeResp(n *Node) {
	n.RespBytes = 0
	if !n.Up {
		return
	}
	rank := c.memberRank(n)
	if rank < 0 {
		return
	}
	// A lone member's range (id, id] is the whole ring.
	lo, hi := c.ring.Range(rank)
	c.global.AscendArc(lo, hi, func(_ keys.Key, h int32) bool {
		n.RespBytes += int64(c.blocks[h].size)
		return true
	})
}

// NodeFail takes a node down: it leaves the ring (keeping its disk) and
// its ranges' replica groups regenerate on the survivors.
func (c *Cluster) NodeFail(idx int) {
	n := c.nodes[idx]
	if !n.Up {
		return
	}
	n.Up = false
	c.deleteMember(n)
	n.RespBytes = 0
	if c.ring.Len() == 0 {
		return
	}
	lo, hi := c.affectedArc(n.ID)
	c.resyncArc(lo, hi, false)
	c.recomputeResp(c.nodes[c.ownerNode(n.ID)])
}

// NodeRecover brings a node back up at its previous ID with its stored
// blocks intact.
func (c *Cluster) NodeRecover(idx int) {
	n := c.nodes[idx]
	if n.Up {
		return
	}
	n.Up = true
	for {
		if _, taken := c.ring.Rank(n.ID); !taken {
			break
		}
		// Another node moved onto this exact ID while we were down
		// (effectively impossible in a 512-bit space).
		n.ID = keys.Random(c.rng)
	}
	c.insertMember(n)
	lo, hi := c.affectedArc(n.ID)
	c.resyncArc(lo, hi, false)
	c.recomputeResp(n)
	// Its successor's range shrank to (n, successor].
	c.recomputeResp(c.nodes[c.ownerNode(n.ID.Next())])
	// Blocks the node holds that no longer belong to it (groups moved on
	// while it was down) are dropped as their arcs resync; sweep the ones
	// outside the resynced arc now.
	c.sweepStale(n)
}

// sweepStale drops the node's held replicas that are no longer in their
// block's replica group, provided the group is fully stocked.
func (c *Cluster) sweepStale(n *Node) {
	drop := c.dropScratch[:0]
	for h := range n.held {
		b := &c.blocks[h]
		if !b.live {
			drop = append(drop, h)
			continue
		}
		if c.nodeInGroup(n.Idx, b.key) {
			continue
		}
		if c.groupFullyStocked(b, h) {
			drop = append(drop, h)
		}
	}
	c.dropScratch = drop
	for _, h := range drop {
		c.dropReplica(n, h)
	}
}

// nodeInGroup reports whether idx is one of the r successors of key k:
// whether k lies above the node's replica floor.
func (c *Cluster) nodeInGroup(idx int, k keys.Key) bool {
	rank := c.rankByNode[idx]
	return rank >= 0 && c.ring.Holds(rank, c.cfg.Replicas, k)
}

// groupFullyStocked reports whether every desired replica of the block is
// an actual stored copy.
func (c *Cluster) groupFullyStocked(b *blockMeta, h int32) bool {
	desired := c.replicaNodes(b.key)
	for _, d := range desired {
		if !c.holds(d, h) {
			return false
		}
	}
	return len(desired) > 0
}

// holds reports whether node idx stores block h (O(1) via the node's held
// index, which addReplica/dropReplica keep in sync with b.holders).
func (c *Cluster) holds(idx int, h int32) bool {
	_, ok := c.nodes[idx].held[h]
	return ok
}

// hasPointer reports whether node idx holds a pointer for block h.
func (c *Cluster) hasPointer(idx int, h int32) bool {
	_, ok := c.nodes[idx].ptrs[h]
	return ok
}

// isFetching reports whether node idx has an in-flight fetch of block h.
func (c *Cluster) isFetching(idx int, h int32) bool {
	_, ok := c.nodes[idx].fetch[h]
	return ok
}
