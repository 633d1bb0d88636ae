package node

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"io"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"github.com/defragdht/d2/internal/fs"
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

// putLog is a client whose batched puts record the size of each block
// they store.
type putLog struct {
	*Client
	sizes map[keys.Key]int
}

func (p *putLog) PutMany(ctx context.Context, ks []keys.Key, data [][]byte) error {
	for i, k := range ks {
		p.sizes[k] = len(data[i])
	}
	return p.Client.PutMany(ctx, ks, data)
}

// TestReadsRouteAroundDeadOwner: on a 16-node ring whose timers are
// frozen, so no round drops a crashed node, reads of the crashed node's
// range go to its replicas at once: the walk that avoids it names its
// successor, which holds a replica. 50 Gets and a ReadStream of a file
// of five segments stored there all succeed in their first round, so
// neither retry counter moves.
func TestReadsRouteAroundDeadOwner(t *testing.T) {
	const size, gets, fileBlocks = 16, 50, 32
	net := transport.NewMemNetwork(0)
	cfgs := make([]Config, size)
	for i := range cfgs {
		cfgs[i] = eventConfig(uint64(i + 1))
		cfgs[i].RepairInterval = time.Hour
	}
	nodes := joinEach(t, net, cfgs)
	defer func() { closeAll(t, nodes) }()
	c := newClient(t, net, nodes)
	defer c.Close()
	ctx := context.Background()

	// One file of 32 full blocks: a stream reads it as segments of 1, 4,
	// 8, 16 and 3 blocks.
	priv := ed25519.NewKeyFromSeed(bytes.Repeat([]byte{42}, ed25519.SeedSize))
	w := &putLog{Client: c, sizes: map[keys.Key]int{}}
	vol, err := fs.Create(ctx, w, "dead-owner", priv, fs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, fileBlocks*fs.BlockSize)
	fill := rand.New(rand.NewPCG(42, 2))
	for i := range content {
		content[i] = byte(fill.Uint64())
	}
	if err := vol.WriteFile(ctx, "/f.bin", content); err != nil {
		t.Fatal(err)
	}
	if err := vol.Close(ctx); err != nil {
		t.Fatal(err)
	}
	var blocks []keys.Key
	for k, n := range w.sizes {
		if n == fs.BlockSize {
			blocks = append(blocks, k)
		}
	}
	if len(blocks) != fileBlocks {
		t.Fatalf("%d full blocks stored, want %d", len(blocks), fileBlocks)
	}
	owner, err := c.Lookup(ctx, blocks[0])
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]keys.Key, len(nodes))
	for i, nd := range nodes {
		ids[i] = nd.Self().ID
	}
	r := ring.New(ids)
	for _, k := range blocks {
		if !r.At(r.SuccessorIndex(k)).Equal(owner.ID) {
			t.Fatalf("the file spans two owners")
		}
	}
	rng := rand.New(rand.NewPCG(42, 1))
	var ks []keys.Key
	for len(ks) < gets {
		if k := keys.Random(rng); r.At(r.SuccessorIndex(k)).Equal(owner.ID) {
			if err := c.Put(ctx, k, []byte(k.String())); err != nil {
				t.Fatal(err)
			}
			ks = append(ks, k)
		}
	}
	for _, k := range append(blocks, ks...) {
		if addrs, _ := holders(nodes, k, nil); len(addrs) != 3 {
			t.Fatalf("key %s on %d nodes, want 3", k.Short(), len(addrs))
		}
	}

	for _, nd := range nodes {
		if nd.Self().Addr == owner.Addr {
			if err := nd.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	nf, seg, segments, rpcs := c.nfRetries.Value(), c.segRetries.Value(), c.segments.Value(), c.RPCs()
	for _, k := range ks {
		got, err := c.Get(ctx, k)
		if err != nil {
			t.Fatalf("get %s: %v", k.Short(), err)
		}
		if string(got) != k.String() {
			t.Fatalf("get %s = %q", k.Short(), got)
		}
	}
	t.Logf("%.1f RPCs per Get of the dead node's range", float64(c.RPCs()-rpcs)/gets)
	rd, err := fs.Open(ctx, c, "dead-owner", priv.Public().(ed25519.PublicKey), nil, fs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close(ctx)
	rs, err := rd.ReadStream(ctx, "/f.bin")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rs)
	rs.Close()
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("stream read %d of %d bytes: %v", len(got), len(content), err)
	}
	if n := c.segments.Value() - segments; n < 3 {
		t.Fatalf("the stream read %d segments, want at least 3", n)
	}
	if n, s := c.nfRetries.Value()-nf, c.segRetries.Value()-seg; n != 0 || s != 0 {
		t.Fatalf("reads took retry rounds for %d keys and segments for %d", n, s)
	}
}

// TestWritesRouteAroundDeadOwner: on a 16-node ring whose timers are
// frozen, so no round drops a crashed node, writes to the crashed node's
// range go to its successor at once: the walk that avoids the dead owner
// names it, and the client caches that answer. Each phase starts with the
// range's cached owner dropped, so each meets the dead node once. 50
// Puts, 50 Removes and a PutMany of 50 blocks in four chunks all succeed
// with no failed walk, so no back-off, and 50 Gets of the PutMany's blocks
// then cost at most two RPCs each on average.
func TestWritesRouteAroundDeadOwner(t *testing.T) {
	const size, crashed, ops = 16, 5, 50
	net := transport.NewMemNetwork(0)
	cfgs := make([]Config, size)
	for i := range cfgs {
		cfgs[i] = eventConfig(uint64(i + 1))
		cfgs[i].RepairInterval = time.Hour
	}
	nodes := joinEach(t, net, cfgs)
	defer func() { closeAll(t, nodes) }()
	c := newClient(t, net, nodes)
	defer c.Close()
	ctx := context.Background()

	ids := make([]keys.Key, len(nodes))
	for i, nd := range nodes {
		ids[i] = nd.Self().ID
	}
	r := ring.New(ids)
	dead := nodes[crashed].Self().ID
	rng := rand.New(rand.NewPCG(45, 1))
	var ks []keys.Key
	for len(ks) < 2*ops {
		if k := keys.Random(rng); r.At(r.SuccessorIndex(k)).Equal(dead) {
			ks = append(ks, k)
		}
	}
	single, batch := ks[:ops], ks[ops:]
	slices.SortFunc(batch, keys.Key.Compare)
	if err := nodes[crashed].Close(); err != nil {
		t.Fatal(err)
	}

	// Every request a phase sends is a hop of a walk that succeeded or one
	// of its writes; a back-off follows only a walk that failed. Each write
	// goes once, and the first goes once more, after failing at the dead
	// node.
	phase := func(name string, writes int, run func() error) {
		t.Helper()
		c.invalidate(ks[0])
		rpcs, hops := c.RPCs(), c.lookupHops.Sum()
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sent, walked := c.RPCs()-rpcs, uint64(c.lookupHops.Sum()-hops)
		if sent-walked > uint64(writes+1) {
			t.Fatalf("%s: %d requests beyond successful walks, want at most %d writes", name, sent-walked, writes+1)
		}
	}
	phase("put", ops, func() error {
		for _, k := range single {
			if err := c.Put(ctx, k, []byte(k.String())); err != nil {
				return err
			}
		}
		return nil
	})
	phase("remove", ops, func() error {
		for _, k := range single {
			if err := c.Remove(ctx, k); err != nil {
				return err
			}
		}
		return nil
	})
	data := make([][]byte, len(batch))
	for i, k := range batch {
		data[i] = []byte(k.String())
	}
	chunks := (len(batch) + maxPutBatchBlocks - 1) / maxPutBatchBlocks
	phase("put_many", chunks, func() error { return c.PutMany(ctx, batch, data) })

	c.invalidate(ks[0])
	nf, rpcs := c.nfRetries.Value(), c.RPCs()
	for _, k := range batch {
		got, err := c.Get(ctx, k)
		if err != nil {
			t.Fatalf("get %s: %v", k.Short(), err)
		}
		if string(got) != k.String() {
			t.Fatalf("get %s = %q", k.Short(), got)
		}
	}
	perGet := float64(c.RPCs()-rpcs) / ops
	t.Logf("%.2f RPCs per Get of the dead node's range", perGet)
	if perGet > 2 {
		t.Fatalf("%.2f RPCs per Get of the dead node's range, want at most 2", perGet)
	}
	if n := c.nfRetries.Value() - nf; n != 0 {
		t.Fatalf("gets took retry rounds for %d keys", n)
	}
}
