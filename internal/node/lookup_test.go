package node

import (
	"context"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/ring"
	"github.com/defragdht/d2/internal/store/disk"
	"github.com/defragdht/d2/internal/transport"
)

// TestLookupsRouteAroundDeadNode: on a 16-node ring whose timers are
// frozen, so no round drops a crashed node, every lookup routed through
// the dead node goes around it at once. No lookup fails, and every client
// lookup succeeds on its first walk, so none waits out a back-off. The
// crashed node then restarts at its persisted ID and joins once, through
// a seed whose links still name it.
func TestLookupsRouteAroundDeadNode(t *testing.T) {
	const size, crashed, lookups = 16, 5, 1000
	net := transport.NewMemNetwork(0)
	dir := t.TempDir()
	openStore := func() *disk.Store {
		st, err := disk.Open(dir, disk.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := openStore()
	defer func() { st.Close() }()
	cfgs := make([]Config, size)
	for i := range cfgs {
		cfgs[i] = eventConfig(uint64(i + 1))
		cfgs[i].RepairInterval = time.Hour
	}
	cfgs[crashed].Store = st
	nodes := joinEach(t, net, cfgs)
	defer func() { closeAll(t, nodes) }()
	c := newClient(t, net, nodes)
	defer c.Close()
	ctx := context.Background()

	ringOf := func(nodes []*Node) *ring.Ring {
		ids := make([]keys.Key, len(nodes))
		for i, nd := range nodes {
			ids[i] = nd.Self().ID
		}
		return ring.New(ids)
	}
	before := ringOf(nodes)
	dead := nodes[crashed]
	id, addr := dead.Self().ID, dead.Self().Addr
	if err := dead.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	live := slices.Delete(slices.Clone(nodes), crashed, crashed+1)
	after := ringOf(live)
	// The owner a lookup names is the live one, or the dead node for a key
	// in its range: its predecessor answers for that range without
	// contacting it, and only a round can tell it the node is gone.
	checkOwner := func(who string, k keys.Key, owner transport.PeerInfo) {
		t.Helper()
		old, now := before.At(before.SuccessorIndex(k)), after.At(after.SuccessorIndex(k))
		if !owner.ID.Equal(now) && !owner.ID.Equal(old) {
			t.Fatalf("%s: key %s: owner %s, want %s or %s", who, k.Short(), owner.ID.Short(), now.Short(), old.Short())
		}
	}

	rng := rand.New(rand.NewPCG(40, 1))
	ks := make([]keys.Key, lookups)
	for i := range ks {
		ks[i] = keys.Random(rng)
	}
	// A back-off follows only a walk that failed, and only a walk that
	// succeeds records its requests as hops: every request the client
	// sends must be one of those.
	rpcs, hops := c.RPCs(), c.lookupHops.Sum()
	var slowest time.Duration
	for _, k := range ks {
		t0 := time.Now()
		owner, err := c.freshLookup(ctx, k)
		slowest = max(slowest, time.Since(t0))
		if err != nil {
			t.Fatalf("client lookup %s: %v", k.Short(), err)
		}
		checkOwner("client", k, owner)
	}
	if sent, walked := c.RPCs()-rpcs, c.lookupHops.Sum()-hops; sent != uint64(walked) {
		t.Fatalf("client sent %d lookup requests, %d of them in walks that succeeded", sent, walked)
	}
	for _, nd := range live {
		for _, k := range ks {
			owner, _, err := nd.Lookup(ctx, k)
			if err != nil {
				t.Fatalf("lookup %s from %s: %v", k.Short(), nd.Self().ID.Short(), err)
			}
			checkOwner(nd.Self().ID.Short(), k, owner)
		}
	}
	t.Logf("slowest client lookup %v", slowest)

	st = openStore()
	cfg := cfgs[crashed]
	cfg.Store = st
	nodes[crashed] = Start(net.NewEndpointAt(addr), cfg)
	if got := nodes[crashed].Self().ID; got != id {
		t.Fatalf("restarted at %s, want persisted %s", got.Short(), id.Short())
	}
	seed := opposite(nodes, nodes[crashed])
	seed.learnLink(nodes[crashed].Self())
	if err := nodes[crashed].Join(ctx, seed.Self().Addr); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	waitSettledWithin(t, nodes, settleBudget, "restart")
}
