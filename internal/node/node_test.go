package node

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/ring"
	"github.com/defragdht/d2/internal/transport"
)

// testConfig returns aggressive intervals so rings converge in tens of
// milliseconds.
func testConfig(seed uint64) Config {
	return Config{
		Replicas:             3,
		StabilizeInterval:    10 * time.Millisecond,
		RepairInterval:       30 * time.Millisecond,
		PointerStabilization: 150 * time.Millisecond,
		RemoveDelay:          50 * time.Millisecond,
		Seed:                 seed,
	}
}

// startRing boots n nodes on a shared memory network and waits for the
// ring to converge.
func startRing(t testing.TB, net *transport.MemNetwork, n int, mutate func(i int, c *Config)) []*Node {
	t.Helper()
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		cfg := testConfig(uint64(i + 1))
		if mutate != nil {
			mutate(i, &cfg)
		}
		nodes[i] = Start(net.NewEndpoint(), cfg)
		if i > 0 {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := nodes[i].Join(ctx, nodes[0].Self().Addr); err != nil {
				cancel()
				t.Fatalf("node %d join: %v", i, err)
			}
			cancel()
		}
	}
	waitConverged(t, nodes, 10*time.Second)
	return nodes
}

// waitConverged polls until successor and predecessor pointers form the
// correct cycle.
func waitConverged(t testing.TB, nodes []*Node, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if Settled(nodes, 2) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring did not converge within %v", timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func closeAll(t testing.TB, nodes []*Node) {
	t.Helper()
	for _, n := range nodes {
		if err := n.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}
}

func newClient(t testing.TB, net *transport.MemNetwork, nodes []*Node) *Client {
	t.Helper()
	c, err := NewClient(net.NewEndpoint(), ClientConfig{
		Seeds:    []transport.Addr{nodes[0].Self().Addr, nodes[len(nodes)-1].Self().Addr},
		Replicas: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSingleNodePutGet(t *testing.T) {
	net := transport.NewMemNetwork(0)
	n := Start(net.NewEndpoint(), testConfig(1))
	defer n.Close()
	c := newClient(t, net, []*Node{n})
	defer c.Close()

	ctx := context.Background()
	k := keys.HashString("solo")
	if err := c.Put(ctx, k, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	data, err := c.Get(ctx, k)
	if err != nil || string(data) != "payload" {
		t.Fatalf("Get = (%q, %v)", data, err)
	}
	if _, err := c.Get(ctx, keys.HashString("absent")); err == nil {
		t.Fatal("Get of absent key succeeded")
	}
}

func TestRingConvergesAndRoutes(t *testing.T) {
	net := transport.NewMemNetwork(0)
	nodes := startRing(t, net, 8, nil)
	defer closeAll(t, nodes)
	c := newClient(t, net, nodes)
	defer c.Close()

	// Every key's lookup must agree with the ground-truth ring.
	ids := make([]keys.Key, len(nodes))
	for i, n := range nodes {
		ids[i] = n.Self().ID
	}
	rg := ring.New(ids)
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		k := keys.HashString(fmt.Sprintf("probe-%d", i))
		owner, err := c.Lookup(ctx, k)
		if err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
		want := rg.At(rg.SuccessorIndex(k))
		if owner.ID != want {
			t.Fatalf("lookup %d: owner %s, want %s", i, owner.ID.Short(), want.Short())
		}
	}
}

func TestReplicationSurvivesPrimaryCrash(t *testing.T) {
	net := transport.NewMemNetwork(0)
	nodes := startRing(t, net, 8, nil)
	defer closeAll(t, nodes)
	c := newClient(t, net, nodes)
	defer c.Close()

	ctx := context.Background()
	k := keys.HashString("precious")
	if err := c.Put(ctx, k, []byte("data")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond) // let repair top up replicas

	owner, err := c.Lookup(ctx, k)
	if err != nil {
		t.Fatal(err)
	}
	var victim *Node
	var rest []*Node
	for _, n := range nodes {
		if n.Self().Addr == owner.Addr {
			victim = n
		} else {
			rest = append(rest, n)
		}
	}
	if victim == nil {
		t.Fatal("owner not among nodes")
	}
	if err := victim.Close(); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, rest, 10*time.Second)

	data, err := c.Get(ctx, k)
	if err != nil || string(data) != "data" {
		t.Fatalf("Get after primary crash = (%q, %v)", data, err)
	}
}

func TestDelayedRemove(t *testing.T) {
	net := transport.NewMemNetwork(0)
	nodes := startRing(t, net, 4, nil)
	defer closeAll(t, nodes)
	c := newClient(t, net, nodes)
	defer c.Close()

	ctx := context.Background()
	k := keys.HashString("doomed")
	if err := c.Put(ctx, k, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(ctx, k); err != nil {
		t.Fatal(err)
	}
	// Still present during the delay window (§3: views may be 30s stale).
	if _, err := c.Get(ctx, k); err != nil {
		t.Fatalf("block vanished before the removal delay: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := c.Get(ctx, k); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("block not removed after delay")
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func TestLookupCacheHitsOnLocality(t *testing.T) {
	net := transport.NewMemNetwork(0)
	nodes := startRing(t, net, 8, nil)
	defer closeAll(t, nodes)
	c := newClient(t, net, nodes)
	defer c.Close()

	ctx := context.Background()
	// Contiguous keys (a D2 file): after the first lookup the rest hit
	// the cached range (unless they straddle a node boundary).
	base := keys.HashString("file-base")
	for b := uint64(0); b < 20; b++ {
		if err := c.Put(ctx, base.WithBlock(b), []byte("blk")); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := c.Stats()
	if hits < 15 {
		t.Errorf("contiguous keys: %d hits / %d misses; locality should hit the cache", hits, misses)
	}
}

func TestTTLExpiry(t *testing.T) {
	net := transport.NewMemNetwork(0)
	cfg := testConfig(1)
	cfg.DefaultTTL = 100 * time.Millisecond
	n := Start(net.NewEndpoint(), cfg)
	defer n.Close()

	k := keys.HashString("ephemeral")
	n.Store().Put(k, []byte("x"), cfg.DefaultTTL, time.Now())
	if n.Store().SweepExpired(time.Now().Add(time.Second)) != 1 {
		t.Fatal("TTL sweep did not remove the block")
	}
}

func TestGracefulLeaveHandsOffData(t *testing.T) {
	net := transport.NewMemNetwork(0)
	nodes := startRing(t, net, 6, nil)
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	c := newClient(t, net, nodes)
	defer c.Close()

	ctx := context.Background()
	var ks []keys.Key
	for i := 0; i < 20; i++ {
		k := keys.HashString(fmt.Sprintf("leave-%d", i))
		ks = append(ks, k)
		if err := c.Put(ctx, k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// The heaviest node leaves gracefully.
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].StoredBytes() > nodes[j].StoredBytes() })
	leaver := nodes[0]
	rest := nodes[1:]
	if err := leaver.Leave(ctx); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, rest, 10*time.Second)
	for _, k := range ks {
		if _, err := c.Get(ctx, k); err != nil {
			t.Fatalf("block %s lost after graceful leave: %v", k.Short(), err)
		}
	}
	nodes = rest
}

func TestBalanceMovesNodesToHotspot(t *testing.T) {
	net := transport.NewMemNetwork(0)
	nodes := startRing(t, net, 10, func(i int, c *Config) {
		c.BalanceInterval = 50 * time.Millisecond
		c.PointerStabilization = 100 * time.Millisecond
	})
	defer closeAll(t, nodes)
	c := newClient(t, net, nodes)
	defer c.Close()

	ctx := context.Background()
	// All data in one tight arc: one node owns everything initially.
	base := keys.HashString("hot")
	var ks []keys.Key
	k := base
	for i := 0; i < 200; i++ {
		k = k.Next()
		ks = append(ks, k)
		if err := c.Put(ctx, k, make([]byte, 512)); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for balance moves to spread primary responsibility.
	deadline := time.Now().Add(15 * time.Second)
	for {
		owners := map[transport.Addr]bool{}
		for _, probe := range []int{0, 50, 100, 150, 199} {
			owner, err := c.freshLookup(ctx, ks[probe])
			if err == nil {
				owners[owner.Addr] = true
			}
		}
		if len(owners) >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hotspot still owned by %d node(s) after balancing", len(owners))
		}
		time.Sleep(100 * time.Millisecond)
	}
	// Every block must remain readable throughout and after the moves.
	for _, key := range ks {
		if _, err := c.Get(ctx, key); err != nil {
			t.Fatalf("block %s unreadable after balancing: %v", key.Short(), err)
		}
	}
}

func TestHundredNodeRing(t *testing.T) {
	if testing.Short() {
		t.Skip("100-node ring in -short mode")
	}
	net := transport.NewMemNetwork(0)
	nodes := startRing(t, net, 100, nil)
	defer closeAll(t, nodes)
	c := newClient(t, net, nodes)
	defer c.Close()

	ctx := context.Background()
	for i := 0; i < 50; i++ {
		k := keys.HashString(fmt.Sprintf("scale-%d", i))
		if err := c.Put(ctx, k, []byte("v")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < 50; i++ {
		k := keys.HashString(fmt.Sprintf("scale-%d", i))
		if _, err := c.Get(ctx, k); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
}

// TestRejoinWithStaleSelfEntry reproduces the durable-restart hole: a
// node that comes back on its old address with its persisted identity is
// reachable exactly where the ring remembers its previous incarnation,
// so a stale link routes the join lookup straight back to the joiner —
// which, as a freshly started singleton, claims its own key. Join must
// not adopt itself as its own successor; it falls back to linking via
// the seed and stabilization walks it to its true position.
func TestRejoinWithStaleSelfEntry(t *testing.T) {
	net := transport.NewMemNetwork(0)
	nodes := startRing(t, net, 4, func(i int, c *Config) {
		// Live-operation default: the ring keeps the dead incarnation's
		// entries far longer than the restart takes.
		c.RemoveDelay = 30 * time.Second
	})
	defer closeAll(t, nodes)

	// Ring order: pick the victim v and join via the survivor w that is
	// neither v's predecessor nor v's successor. After the kill, v's arc
	// is absorbed by its successor, so w neither owns v's ID nor has it
	// in its immediate-successor range — w must route the lookup, and
	// the stale link (at exactly the looked-up ID) wins the greedy hop.
	byAddr := func(a transport.Addr) int {
		for i, n := range nodes {
			if n.Self().Addr == a {
				return i
			}
		}
		t.Fatalf("address %s not found among nodes", a)
		return -1
	}
	vi := byAddr(nodes[0].Successor().Addr)
	ui := byAddr(nodes[vi].Successor().Addr)
	wi := byAddr(nodes[ui].Successor().Addr)
	seedNode := nodes[wi]
	old := nodes[vi]
	id := old.Self().ID
	addr := old.Self().Addr
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	// Let the survivors heal (as a real cluster does in the minutes
	// before an operator restarts the dead node).
	survivors := make([]*Node, 0, 3)
	for i, n := range nodes {
		if i != vi {
			survivors = append(survivors, n)
		}
	}
	waitConverged(t, survivors, 10*time.Second)

	// Restart on the same address with the same identity. The new
	// incarnation answers pings for the old one, so the stale reference
	// injected below never gets purged — exactly the live condition,
	// where the survivors' link tables still name the dead node's
	// address and keep it because the restarted listener responds.
	cfg := testConfig(0)
	cfg.ID = id
	cfg.RemoveDelay = 30 * time.Second
	nb := Start(net.NewEndpointAt(addr), cfg)
	nodes[vi] = nb
	seedNode.learnLink(transport.PeerInfo{ID: id, Addr: addr})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := nb.Join(ctx, seedNode.Self().Addr); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if nb.Successor().Addr == addr {
		t.Fatalf("rejoined node adopted itself as successor (singleton ring)")
	}
	waitConverged(t, nodes, 10*time.Second)
}

// TestReplicaCountConvergesAndHolds pins the replica-responsibility
// bound in replicaRangeStart: every data block must settle on exactly r
// nodes and stay there. With the bound one predecessor short, the
// farthest owner's last replica treats its legitimate copies as stale
// and hands them off, the owner's repair pushes them back, and the
// cluster oscillates between r-1 and r copies forever — silently
// degraded redundancy plus a permanent handoff/repair ping-pong that a
// durable store pays for in WAL growth.
func TestReplicaCountConvergesAndHolds(t *testing.T) {
	net := transport.NewMemNetwork(0)
	nodes := startRing(t, net, 6, nil)
	defer closeAll(t, nodes)
	c := newClient(t, net, nodes)
	defer c.Close()

	ctx := context.Background()
	var ks []keys.Key
	for i := 0; i < 24; i++ {
		k := keys.HashString(fmt.Sprintf("replica-%d", i))
		if err := c.Put(ctx, k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		ks = append(ks, k)
	}

	copies := func(k keys.Key) int {
		held := 0
		for _, nd := range nodes {
			if b, ok := nd.Store().Get(k); ok && !b.IsPointer() {
				held++
			}
		}
		return held
	}

	// placed reports whether k sits on exactly its replica group: its
	// owner (the first node at or after k) and the r-1 nodes after it.
	// Counting copies is not enough: a put that ran before every
	// successor list settled leaves a replica outside the group, r copies
	// in all until repair fills the group, and the stray copy's hand-off
	// would then land in the hold window below.
	ids := make([]keys.Key, len(nodes))
	byID := make(map[keys.Key]*Node, len(nodes))
	for i, nd := range nodes {
		ids[i] = nd.Self().ID
		byID[ids[i]] = nd
	}
	rg := ring.New(ids)
	placed := func(k keys.Key) bool {
		for _, rank := range rg.AppendReplicas(nil, k, 3) {
			if b, ok := byID[rg.At(rank)].Store().Get(k); !ok || b.IsPointer() {
				return false
			}
		}
		return copies(k) == 3
	}

	// Converge: every key sits on exactly its r replica-group nodes.
	deadline := time.Now().Add(10 * time.Second)
	for {
		short := -1
		for i, k := range ks {
			if !placed(k) {
				short = i
				break
			}
		}
		if short < 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("key %d stuck at %d copies, want 3 on its replica group", short, copies(ks[short]))
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Hold: with the ring stable and every replica in place, repair must
	// go quiet. Any handoff now means a holder is misjudging its own
	// responsibility range (the ping-pong).
	before := uint64(0)
	for _, nd := range nodes {
		before += nd.metrics.handoffs.Value()
	}
	time.Sleep(10 * testConfig(0).RepairInterval)
	after := uint64(0)
	for _, nd := range nodes {
		after += nd.metrics.handoffs.Value()
	}
	if after != before {
		t.Fatalf("%d handoffs during steady state (replica ping-pong)", after-before)
	}
	for _, k := range ks {
		if got := copies(k); got < 3 {
			t.Fatalf("key dropped to %d copies in steady state", got)
		}
	}
}

// TestRestartedPrimaryRegainsItsBlocks crashes the primary of a run of
// keys and restarts it at its ID on an empty store. Its blocks come back
// only through the hand-off of the node that held the third copy while it
// was down, and that hand-off must reach the restarted node itself. Right
// after the rejoin the node before it still names the next node as its
// successor, so a lookup can answer with that next node — which already
// holds a copy, acks, and leaves the keys on r-1 nodes for good. Slow
// stabilization keeps that stale pointer alive across many repair rounds.
func TestRestartedPrimaryRegainsItsBlocks(t *testing.T) {
	net := transport.NewMemNetwork(0)
	slow := func(i int, c *Config) { c.StabilizeInterval = 150 * time.Millisecond }
	nodes := startRing(t, net, 6, slow)
	defer func() { closeAll(t, nodes) }()
	c := newClient(t, net, nodes)
	defer c.Close()

	ctx := context.Background()
	var ks []keys.Key
	for i := 0; i < 24; i++ {
		k := keys.HashString(fmt.Sprintf("restart-%d", i))
		if err := c.Put(ctx, k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		ks = append(ks, k)
	}
	// placed reports whether every key sits on exactly its replica group.
	placed := func() bool {
		ids := make([]keys.Key, len(nodes))
		byID := make(map[keys.Key]*Node, len(nodes))
		for i, nd := range nodes {
			ids[i] = nd.Self().ID
			byID[ids[i]] = nd
		}
		rg := ring.New(ids)
		for _, k := range ks {
			held := 0
			for _, nd := range nodes {
				if hasData(nd, k) {
					held++
				}
			}
			for _, rank := range rg.AppendReplicas(nil, k, 3) {
				if !hasData(byID[rg.At(rank)], k) {
					return false
				}
			}
			if held != 3 {
				return false
			}
		}
		return true
	}
	waitPlaced := func(stage string) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !placed(); time.Sleep(25 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: keys not on exactly their replica groups", stage)
			}
		}
	}
	waitPlaced("after writes")

	owner, err := c.Lookup(ctx, ks[0])
	if err != nil {
		t.Fatal(err)
	}
	vi := -1
	for i, nd := range nodes {
		if nd.Self().Addr == owner.Addr {
			vi = i
		}
	}
	id := nodes[vi].Self().ID
	if err := nodes[vi].Close(); err != nil {
		t.Fatal(err)
	}
	nodes = append(nodes[:vi], nodes[vi+1:]...)
	waitConverged(t, nodes, 10*time.Second)
	waitPlaced("after the crash")

	cfg := testConfig(0)
	cfg.ID = id
	slow(0, &cfg)
	restarted := Start(net.NewEndpoint(), cfg)
	nodes = append(nodes, restarted)
	// A join lookup may still route through a link to the dead
	// incarnation; retry as an operator would.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		err := restarted.Join(ctx, nodes[0].Self().Addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal(err)
		}
	}
	waitConverged(t, nodes, 10*time.Second)
	waitPlaced("after the restart")
}
