package node

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs"
	"github.com/defragdht/d2/internal/obs/census"
	"github.com/defragdht/d2/internal/store"
	"github.com/defragdht/d2/internal/transport"
)

// engineCounts tallies the index walks and payload reads made through a
// countingEngine.
type engineCounts struct {
	arcVisits, wholeVisits    int // ArcVisit calls; those over the whole ring
	arcs, arcLimits, keyLists int // Arc, ArcLimit and Keys calls
	gets                      int // Get calls
	payloads, maxBatch        int // data blocks read; largest GetBatch
}

// countingEngine wraps an engine and counts what the node reads through
// it. PutBatch is forwarded so the batch path stays the engine's own.
type countingEngine struct {
	store.Engine
	mu sync.Mutex
	c  engineCounts
}

func (e *countingEngine) add(f func(c *engineCounts)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f(&e.c)
}

func (e *countingEngine) counts() engineCounts {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.c
}

func (e *countingEngine) reset() { e.add(func(c *engineCounts) { *c = engineCounts{} }) }

func dataItems(items []store.Item) (n int) {
	for _, it := range items {
		if !it.Block.IsPointer() {
			n++
		}
	}
	return n
}

func (e *countingEngine) ArcVisit(lo, hi keys.Key, fn func(keys.Key, store.Meta) bool) {
	e.add(func(c *engineCounts) {
		c.arcVisits++
		if lo.Equal(hi) {
			c.wholeVisits++
		}
	})
	e.Engine.ArcVisit(lo, hi, fn)
}

func (e *countingEngine) Arc(lo, hi keys.Key) []store.Item {
	items := e.Engine.Arc(lo, hi)
	e.add(func(c *engineCounts) { c.arcs++; c.payloads += dataItems(items) })
	return items
}

func (e *countingEngine) ArcLimit(lo, hi keys.Key, limit int) ([]store.Item, bool) {
	items, more := e.Engine.ArcLimit(lo, hi, limit)
	e.add(func(c *engineCounts) { c.arcLimits++; c.payloads += dataItems(items) })
	return items, more
}

func (e *countingEngine) Keys() []keys.Key {
	e.add(func(c *engineCounts) { c.keyLists++ })
	return e.Engine.Keys()
}

func (e *countingEngine) Get(k keys.Key) (*store.Block, bool) {
	b, ok := e.Engine.Get(k)
	e.add(func(c *engineCounts) {
		c.gets++
		if ok && !b.IsPointer() {
			c.payloads++
		}
	})
	return b, ok
}

func (e *countingEngine) GetBatch(ks []keys.Key) []*store.Block {
	bs := e.Engine.GetBatch(ks)
	e.add(func(c *engineCounts) {
		c.maxBatch = max(c.maxBatch, len(ks))
		for _, b := range bs {
			if b != nil && !b.IsPointer() {
				c.payloads++
			}
		}
	})
	return bs
}

func (e *countingEngine) PutBatch(ks []keys.Key, data [][]byte, ttl time.Duration, now time.Time) error {
	return store.PutBatch(e.Engine, ks, data, ttl, now)
}

// countingTransport counts a node's outbound RPCs by kind.
type countingTransport struct {
	transport.Transport
	mu    sync.Mutex
	calls map[string]int
}

func (t *countingTransport) Call(ctx context.Context, to transport.Addr, req transport.Message) (transport.Message, error) {
	t.mu.Lock()
	if t.calls == nil {
		t.calls = map[string]int{}
	}
	t.calls[transport.RPCName(req)]++
	t.mu.Unlock()
	return t.Transport.Call(ctx, to, req)
}

func (t *countingTransport) sent() map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int, len(t.calls))
	for k, v := range t.calls {
		out[k] = v
	}
	return out
}

// countedRing is a mem ring network whose endpoints count their calls;
// trs[i] belongs to the i-th endpoint made (node i of startSpacedRing).
func countedRing() (ringNet, *[]*countingTransport) {
	mem := transport.NewMemNetwork(0)
	var trs []*countingTransport
	return ringNet{"mem", func(testing.TB) transport.Transport {
		ct := &countingTransport{Transport: mem.NewEndpoint()}
		trs = append(trs, ct)
		return ct
	}}, &trs
}

// hasData reports whether nd holds data (not a pointer) under k.
func hasData(nd *Node, k keys.Key) bool {
	b, ok := nd.Store().Get(k)
	return ok && !b.IsPointer()
}

// sweepReport is a census report with the per-sweep bookkeeping zeroed,
// so two sweeps over the same store compare equal.
func sweepReport(r *census.Report) *census.Report {
	r.SweepNanos, r.Sweeps = 0, 0
	return r
}

// TestMaintenanceRoundWalksOnce runs one maintenance round on the middle
// node X of a five-node ring (IDs 0x19, 0x4c, 0x80, 0xb3, 0xe6; X's
// primary range is (0x4c, 0x80], its replica range (0xe6, 0x80]) over a
// store holding every kind of entry the round acts on, and checks that
// one index walk fed all of it.
func TestMaintenanceRoundWalksOnce(t *testing.T) {
	rn, trs := countedRing()
	var xst *countingEngine
	nodes := startSpacedRing(t, rn, 5, func(i int, c *Config) {
		c.RepairInterval = time.Hour // the test runs the round itself
		if i == 2 {
			xst = &countingEngine{Engine: store.New()}
			c.Store = xst
		}
	})
	defer closeAll(t, nodes)
	x, xtr := nodes[2], (*trs)[2]
	succ1, succ2 := nodes[3], nodes[4]

	now := time.Now()
	put := func(nd *Node, k keys.Key) { nd.Store().Put(k, []byte("d-"+k.Short()), 0, now) }
	run := func(b byte, n int) (ks []keys.Key) {
		for i := 1; i <= n; i++ {
			ks = append(ks, keys.Key{b}.WithBlock(uint64(i)))
		}
		return ks
	}
	primary := run(0x60, 20) // two batches per successor
	replica := run(0x30, 3)  // a predecessor's range: kept, not pushed
	outside1 := run(0x90, 3) // owned by succ1
	outside2 := run(0xd0, 18)
	doomedPrimary, doomedOutside := keys.Key{0x61}.WithBlock(1), keys.Key{0x91}.WithBlock(1)
	for _, ks := range [][]keys.Key{primary, replica, outside1, outside2, {doomedPrimary, doomedOutside}} {
		for _, k := range ks {
			put(x, k)
		}
	}
	x.Store().Refresh(doomedPrimary, time.Hour, now)
	x.Store().Refresh(doomedOutside, time.Hour, now)
	stale, fresh := keys.Key{0x70}.WithBlock(1), keys.Key{0x71}.WithBlock(1)
	put(nodes[0], stale)
	x.Store().PutPointer(stale, nodes[0].Self().Addr, 10, now.Add(-time.Hour))
	x.Store().PutPointer(fresh, nodes[0].Self().Addr, 10, now.Add(time.Hour))

	// The census the round must reproduce: a standalone sweep of the same
	// store against the same bounds.
	standalone := census.New(census.Config{
		Store: xst.Engine,
		Bounds: func() census.Bounds {
			return census.Bounds{Self: x.Self().ID, Pred: x.Predecessor().ID, Ok: true}
		},
		Registry:   obs.New(),
		StaleAfter: testConfig(0).PointerStabilization,
	})
	standalone.Sweep()
	want := sweepReport(standalone.Snapshot())

	xst.reset()
	before := xtr.sent()
	x.maintain()
	after := xtr.sent()

	if c := xst.counts(); c.arcVisits != 1 || c.wholeVisits != 1 || c.arcs+c.arcLimits+c.keyLists+c.gets != 0 {
		t.Fatalf("round walked the index as %+v; want exactly one whole-store ArcVisit and no other listing", c)
	}
	if c := xst.counts(); c.maxBatch > maxPutBatchBlocks {
		t.Fatalf("round read a %d-block batch, more than one MultiPut", c.maxBatch)
	}
	got := x.Census().Snapshot()
	if got.Sweeps != 1 {
		t.Fatalf("census sweeps = %d after one round, want 1", got.Sweeps)
	}
	if !reflect.DeepEqual(sweepReport(got), want) {
		t.Fatalf("round census differs from a standalone sweep:\n got %+v\nwant %+v", got, want)
	}

	// Repair: every live primary block on both successors, the doomed
	// one on neither; replica blocks stay put.
	for _, k := range primary {
		if !hasData(succ1, k) || !hasData(succ2, k) || !hasData(x, k) {
			t.Fatalf("primary block %s not on X and both successors", k.Short())
		}
	}
	if hasData(succ1, doomedPrimary) || hasData(succ2, doomedPrimary) {
		t.Fatal("a doomed primary block was pushed to a successor")
	}
	for _, k := range replica {
		if !hasData(x, k) || hasData(succ1, k) {
			t.Fatalf("replica block %s moved", k.Short())
		}
	}
	// Hand-off: outside blocks reach their owners and leave X; the doomed
	// one stays where it is.
	for owner, ks := range map[*Node][]keys.Key{succ1: outside1, succ2: outside2} {
		for _, k := range ks {
			if !hasData(owner, k) || hasData(x, k) {
				t.Fatalf("outside block %s not handed to %s", k.Short(), owner.Self().ID.Short())
			}
		}
	}
	if !hasData(x, doomedOutside) || hasData(succ1, doomedOutside) {
		t.Fatal("a doomed outside block was handed off")
	}
	// Pointers: the stale one now holds data, the fresh one waits.
	if !hasData(x, stale) {
		t.Fatal("stale pointer not resolved")
	}
	if b, ok := x.Store().Get(fresh); !ok || !b.IsPointer() {
		t.Fatal("fresh pointer resolved before its stabilization time")
	}

	// Traffic: batches only. Repair is 2 successors × 2 batches, hand-off
	// one batch for succ1's three blocks and two for succ2's eighteen.
	sent := func(rpc string) int { return after[rpc] - before[rpc] }
	if sent("put") != 0 || sent("multi_put") != 7 || sent("range") != 2 || sent("get") != 1 {
		t.Fatalf("round sent put=%d multi_put=%d range=%d get=%d; want 0, 7, 2, 1",
			sent("put"), sent("multi_put"), sent("range"), sent("get"))
	}
	if n := x.metrics.handoffs.Value(); n != uint64(len(outside1)+len(outside2)) {
		t.Fatalf("handoffs = %d, want %d", n, len(outside1)+len(outside2))
	}
	if n := x.metrics.repairPushes.Value(); n != uint64(2*len(primary)) {
		t.Fatalf("repair pushes = %d, want %d", n, 2*len(primary))
	}

	t.Run("single-node", func(t *testing.T) {
		rn, trs := countedRing()
		st := &countingEngine{Engine: store.New()}
		cfg := testConfig(1)
		cfg.RepairInterval = time.Hour
		cfg.Store = st
		solo := Start(rn.endpoint(t), cfg)
		defer solo.Close()
		for _, k := range run(0x40, 5) {
			put(solo, k)
		}
		solo.maintain()
		if c := st.counts(); c.arcVisits != 1 || c.wholeVisits != 1 || c.payloads != 0 {
			t.Fatalf("single-node round walked %+v; want one whole-store ArcVisit, no payload reads", c)
		}
		if r := solo.Census().Snapshot(); r.Sweeps != 1 || r.PrimaryBlocks != 5 {
			t.Fatalf("single-node census = %+v; want one sweep over 5 primary blocks", r)
		}
		if sent := (*trs)[0].sent(); sent["multi_put"]+sent["range"]+sent["put"] != 0 {
			t.Fatalf("single-node round pushed: %v", sent)
		}
	})
}

// TestRepairPagesWrappedArc runs the repair round of the first node of a
// five-node ring (IDs 0x19, 0x4c, 0x80, 0xb3, 0xe6), whose primary arc
// (0xe6, 0x19] wraps past key zero and holds more keys than one page of a
// successor's listing. Each successor lacks one key on each side of zero;
// exactly those two keys are pushed to each, and each listing takes two
// pages.
func TestRepairPagesWrappedArc(t *testing.T) {
	rn, trs := countedRing()
	nodes := startSpacedRing(t, rn, 5, func(_ int, c *Config) {
		c.RepairInterval = time.Hour // the test runs the round itself
	})
	defer closeAll(t, nodes)
	x, succs := nodes[0], nodes[1:3]

	var ks []keys.Key
	for i := uint64(1); i <= repairPage; i++ {
		ks = append(ks, keys.Key{0xf0}.WithBlock(i), keys.Key{0x05}.WithBlock(i))
	}
	high, low := keys.Key{0xf0}.WithBlock(7), keys.Key{0x05}.WithBlock(repairPage-3)
	now := time.Now()
	for _, k := range ks {
		x.Store().Put(k, []byte("d"), 0, now)
		for _, s := range succs {
			if k != high && k != low {
				s.Store().Put(k, []byte("d"), 0, now)
			}
		}
	}

	before := (*trs)[0].sent()
	x.maintain()
	after := (*trs)[0].sent()

	for _, s := range succs {
		for _, k := range []keys.Key{high, low} {
			if !hasData(s, k) {
				t.Fatalf("missing key %s not pushed to %s", k.Short(), s.Self().ID.Short())
			}
		}
		if got := s.Store().Len(); got != len(ks) {
			t.Fatalf("successor %s holds %d keys, want %d", s.Self().ID.Short(), got, len(ks))
		}
	}
	if n := x.metrics.repairPushes.Value(); n != 4 {
		t.Fatalf("repair pushed %d blocks, want 4 (two keys to each successor)", n)
	}
	if d := x.metrics.replicaDeficit.Value(); d != 0 {
		t.Fatalf("replica deficit = %d after a full repair, want 0", d)
	}
	sent := func(rpc string) int { return after[rpc] - before[rpc] }
	if sent("range") != 4 || sent("multi_put") != 2 {
		t.Fatalf("round sent range=%d multi_put=%d; want 4 (two pages per successor) and 2",
			sent("range"), sent("multi_put"))
	}
}

// TestDurableAckPut: an owner whose engine cannot make a single-key put
// durable answers with an error, and Client.Put returns it.
func TestDurableAckPut(t *testing.T) {
	for _, rn := range ringNets() {
		t.Run(rn.name, func(t *testing.T) {
			engines := make([]*failingEngine, 3)
			nodes := startSpacedRing(t, rn, 3, func(i int, c *Config) {
				engines[i] = &failingEngine{Engine: store.New()}
				c.Store = engines[i]
			})
			defer closeAll(t, nodes)
			c := clientOn(t, rn, nodes)
			defer c.Close()
			ctx := context.Background()

			k := keys.Key{0x60}.WithBlock(1) // owned by nodes[1] (0x80)
			engines[1].fail.Store(true)
			err := c.Put(ctx, k, []byte("v"))
			if err == nil || !strings.Contains(err.Error(), errEngine.Error()) {
				t.Fatalf("Put with a failing owner = %v, want the engine's failure", err)
			}
			engines[1].fail.Store(false)
			if err := c.Put(ctx, k, []byte("v")); err != nil {
				t.Fatalf("Put after the engine healed: %v", err)
			}
		})
	}
}

// TestDurableAckHandOff: a hand-off the owner could not make durable is
// not acknowledged, so the sender keeps its copy; once the owner heals,
// the next round moves the block and drops it locally.
func TestDurableAckHandOff(t *testing.T) {
	rn := ringNets()[0]
	engines := make([]*failingEngine, 5)
	nodes := startSpacedRing(t, rn, 5, func(i int, c *Config) {
		c.RepairInterval = time.Hour
		engines[i] = &failingEngine{Engine: store.New()}
		c.Store = engines[i]
	})
	defer closeAll(t, nodes)
	x, owner := nodes[2], nodes[3] // 0x80; 0xb3 owns (0x80, 0xb3]

	k := keys.Key{0x90}.WithBlock(1)
	data := []byte("outside")
	x.Store().Put(k, data, 0, time.Now())
	engines[3].fail.Store(true)
	x.maintain()
	if b, ok := x.Store().Get(k); !ok || !bytes.Equal(b.Data, data) {
		t.Fatal("sender dropped its copy of a hand-off the owner did not make durable")
	}
	engines[3].fail.Store(false)
	x.maintain()
	if hasData(x, k) || !hasData(owner, k) {
		t.Fatalf("after the owner healed: on sender %v, on owner %v; want moved", hasData(x, k), hasData(owner, k))
	}
}

// TestBalanceMoveReadsNoPayloads: a balance move sends pointers, which
// need only key, size and target — no node involved may read a payload.
func TestBalanceMoveReadsNoPayloads(t *testing.T) {
	engines := make([]*countingEngine, 3)
	nodes := startSpacedRing(t, ringNets()[0], 3, func(i int, c *Config) {
		c.RepairInterval = time.Hour
		engines[i] = &countingEngine{Engine: store.New()}
		c.Store = engines[i]
	})
	defer closeAll(t, nodes)
	mover, heavy := nodes[0], nodes[2] // 0x2a moves into 0xd5's range (0x80, 0xd5]

	now := time.Now()
	for i := 1; i <= 8; i++ {
		mover.Store().Put(keys.Key{0x10}.WithBlock(uint64(i)), make([]byte, 64), 0, now)
		heavy.Store().Put(keys.Key{0xa0}.WithBlock(uint64(i)), make([]byte, 64), 0, now)
		heavy.Store().Put(keys.Key{0xc0}.WithBlock(uint64(i)), make([]byte, 64), 0, now)
	}
	for _, e := range engines {
		e.reset()
	}
	oldID := mover.Self().ID
	mover.moveTo(context.Background(), heavy.Self())
	if mover.Self().ID.Equal(oldID) || mover.metrics.balanceMoves.Value() != 1 {
		t.Fatal("the balance move did not happen")
	}
	for i, e := range engines {
		if c := e.counts(); c.payloads != 0 {
			t.Fatalf("node %d read %d payloads during a balance move (%+v), want 0", i, c.payloads, c)
		}
	}
	// The move left pointers where the data was: the mover's old arc now
	// belongs to its old successor.
	if b, ok := nodes[1].Store().Get(keys.Key{0x10}.WithBlock(1)); !ok || b.Pointer != mover.Self().Addr {
		t.Fatal("old successor holds no pointer to the mover's blocks")
	}
}

// refusePointers is an endpoint whose node answers every PutPtrReq with
// an error.
type refusePointers struct{ transport.Transport }

func (t refusePointers) Serve(h transport.Handler) {
	t.Transport.Serve(func(ctx context.Context, from transport.Addr, req transport.Message) (transport.Message, error) {
		if _, ok := req.(*transport.PutPtrReq); ok {
			return nil, errors.New("pointer refused")
		}
		return h(ctx, from, req)
	})
}

// TestBalancePointerPushErrorsAreCounted: a move whose successor refuses
// the pointers for the mover's old arc counts every pointer it could not
// install and logs one event for the move.
func TestBalancePointerPushErrorsAreCounted(t *testing.T) {
	mem := transport.NewMemNetwork(0)
	made := 0
	rn := ringNet{"mem", func(testing.TB) transport.Transport {
		if made++; made == 2 { // node 1, the mover's successor
			return refusePointers{mem.NewEndpoint()}
		}
		return mem.NewEndpoint()
	}}
	nodes := startSpacedRing(t, rn, 3, func(i int, c *Config) { c.RepairInterval = time.Hour })
	defer closeAll(t, nodes)
	mover, heavy := nodes[0], nodes[2]

	now := time.Now()
	const n = 8
	for i := 1; i <= n; i++ {
		mover.Store().Put(keys.Key{0x10}.WithBlock(uint64(i)), make([]byte, 64), 0, now)
		heavy.Store().Put(keys.Key{0xa0}.WithBlock(uint64(i)), make([]byte, 64), 0, now)
	}
	mover.moveTo(context.Background(), heavy.Self())
	if mover.metrics.balanceMoves.Value() != 1 {
		t.Fatal("the balance move did not happen")
	}
	if got := mover.metrics.ptrPushErrors.Value(); got != n {
		t.Fatalf("d2_node_pointer_push_errors_total = %d, want %d", got, n)
	}
	logged := 0
	for _, ev := range mover.Events().Events() {
		if ev.Name == "balance.pointer_push_error" {
			logged++
		}
	}
	if logged != 1 {
		t.Fatalf("%d balance.pointer_push_error events, want 1 for the move", logged)
	}
}

// TestLeaveReadsInChunks: a graceful leave moves its blocks through the
// batched push path — no whole-store read, no batch over one MultiPut,
// and every block it hands over read exactly once.
func TestLeaveReadsInChunks(t *testing.T) {
	var lst *countingEngine
	nodes := startSpacedRing(t, ringNets()[0], 4, func(i int, c *Config) {
		c.RepairInterval = time.Hour
		if i == 1 {
			lst = &countingEngine{Engine: store.New()}
			c.Store = lst
		}
	})
	leaver, owner := nodes[1], nodes[0] // 0x60; 0x20 owns (0xe0, 0x20]
	defer closeAll(t, []*Node{nodes[0], nodes[2], nodes[3]})

	now := time.Now()
	var handed []keys.Key
	for i := 1; i <= 40; i++ {
		k := keys.Key{0x10}.WithBlock(uint64(i))
		handed = append(handed, k)
		leaver.Store().Put(k, []byte("x"), 0, now)
	}
	for i := 1; i <= 5; i++ { // the leaver's own range stays with its replicas
		leaver.Store().Put(keys.Key{0x50}.WithBlock(uint64(i)), []byte("y"), 0, now)
	}
	lst.reset()
	if err := leaver.Leave(context.Background()); err != nil {
		t.Fatal(err)
	}
	c := lst.counts()
	if c.arcs+c.arcLimits+c.keyLists != 0 || c.maxBatch > maxPutBatchBlocks || c.payloads != len(handed) {
		t.Fatalf("leave read %+v; want no whole-store read, batches ≤ %d, %d payloads", c, maxPutBatchBlocks, len(handed))
	}
	for _, k := range handed {
		if !hasData(owner, k) {
			t.Fatalf("block %s not handed to its owner on leave", k.Short())
		}
	}
}
