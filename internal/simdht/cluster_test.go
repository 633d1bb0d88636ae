package simdht

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/ring"
	"github.com/defragdht/d2/internal/sim"
)

func newTestCluster(t *testing.T, nodes int, cfg Config) (*sim.Engine, *Cluster) {
	t.Helper()
	eng := &sim.Engine{}
	cfg.Nodes = nodes
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	return eng, New(eng, cfg)
}

// checkInvariants validates global consistency: holder lists and per-node
// held sets agree, byte accounting matches, and every live block with any
// up holder is reported available.
func checkInvariants(t *testing.T, c *Cluster) {
	t.Helper()
	heldBytes := make(map[int]int64)
	ptrCount := make(map[int]int)
	fetchCount := make(map[int]int)
	for h := range c.blocks {
		b := &c.blocks[h]
		if !b.live {
			continue
		}
		seen := map[int32]bool{}
		for _, holder := range b.holders {
			if seen[holder] {
				t.Fatalf("block %s lists holder %d twice", b.key.Short(), holder)
			}
			seen[holder] = true
			n := c.nodes[holder]
			if _, ok := n.held[int32(h)]; !ok {
				t.Fatalf("block %s lists holder %d but node does not hold it", b.key.Short(), holder)
			}
			heldBytes[int(holder)] += int64(b.size)
		}
		for _, p := range b.pointers {
			if !c.hasPointer(p.node, int32(h)) {
				t.Fatalf("block %s lists pointer at %d but node index lacks it", b.key.Short(), p.node)
			}
			ptrCount[p.node]++
		}
		for _, f := range b.fetching {
			if !c.isFetching(int(f), int32(h)) {
				t.Fatalf("block %s lists fetch at %d but node index lacks it", b.key.Short(), f)
			}
			fetchCount[int(f)]++
		}
	}
	for _, n := range c.nodes {
		if len(n.ptrs) != ptrCount[n.Idx] {
			t.Fatalf("node %d pointer index has %d entries, blocks list %d", n.Idx, len(n.ptrs), ptrCount[n.Idx])
		}
		if len(n.fetch) != fetchCount[n.Idx] {
			t.Fatalf("node %d fetch index has %d entries, blocks list %d", n.Idx, len(n.fetch), fetchCount[n.Idx])
		}
	}
	for _, n := range c.nodes {
		for h := range n.held {
			if !c.blocks[h].live {
				t.Fatalf("node %d holds dead block %d", n.Idx, h)
			}
			if !c.holds(n.Idx, h) {
				t.Fatalf("node %d holds block %d not listing it", n.Idx, h)
			}
		}
		if n.HeldBytes != heldBytes[n.Idx] {
			t.Fatalf("node %d HeldBytes=%d, recomputed=%d", n.Idx, n.HeldBytes, heldBytes[n.Idx])
		}
	}
	// Global tree and byKey agree.
	count := 0
	c.global.AscendRange(keys.Zero, keys.MaxKey, func(k keys.Key, h int32) bool {
		count++
		if got, ok := c.byKey[k]; !ok || got != h {
			t.Fatalf("global tree and byKey disagree at %s", k.Short())
		}
		return true
	})
	if count != len(c.byKey) {
		t.Fatalf("global tree has %d blocks, byKey has %d", count, len(c.byKey))
	}
}

// checkRespBytes verifies the incrementally-maintained responsibility
// bytes against a fresh recomputation.
func checkRespBytes(t *testing.T, c *Cluster) {
	t.Helper()
	want := make(map[int]int64)
	c.global.AscendRange(keys.Zero, keys.MaxKey, func(k keys.Key, h int32) bool {
		if owner := c.ownerNode(k); owner >= 0 {
			want[owner] += int64(c.blocks[h].size)
		}
		return true
	})
	for _, n := range c.nodes {
		if n.RespBytes != want[n.Idx] {
			t.Fatalf("node %d RespBytes=%d, recomputed=%d", n.Idx, n.RespBytes, want[n.Idx])
		}
	}
}

func TestPutPlacesOnReplicaGroup(t *testing.T) {
	_, c := newTestCluster(t, 10, Config{Replicas: 3})
	k := keys.HashString("some-block")
	c.PutInstant(k, 8192)

	exists, avail := c.BlockStatus(k)
	if !exists || !avail {
		t.Fatalf("BlockStatus = (%v, %v), want available", exists, avail)
	}
	h := c.byKey[k]
	if got := len(c.blocks[h].holders); got != 3 {
		t.Fatalf("block has %d holders, want 3", got)
	}
	desired := c.replicaNodes(k)
	for _, holder := range c.blocks[h].holders {
		found := false
		for _, d := range desired {
			if int(holder) == d {
				found = true
			}
		}
		if !found {
			t.Errorf("holder %d not in replica group %v", holder, desired)
		}
	}
	checkInvariants(t, c)
	checkRespBytes(t, c)
}

func TestPutInstantOverwriteAdjustsSize(t *testing.T) {
	_, c := newTestCluster(t, 5, Config{Replicas: 2})
	k := keys.HashString("blk")
	c.PutInstant(k, 8192)
	c.PutInstant(k, 4096)
	h := c.byKey[k]
	if c.blocks[h].size != 4096 {
		t.Fatalf("size after overwrite = %d", c.blocks[h].size)
	}
	if c.NumBlocks() != 1 {
		t.Fatalf("NumBlocks = %d, want 1", c.NumBlocks())
	}
	checkInvariants(t, c)
	checkRespBytes(t, c)
}

func TestRemoveAfterDelay(t *testing.T) {
	eng, c := newTestCluster(t, 5, Config{Replicas: 2, RemoveDelay: 30 * time.Second})
	k := keys.HashString("gone")
	c.PutInstant(k, 100)
	c.Remove(k)
	eng.Run(10 * time.Second)
	if exists, _ := c.BlockStatus(k); !exists {
		t.Fatal("block removed before the 30s delay")
	}
	eng.Run(time.Minute)
	if exists, _ := c.BlockStatus(k); exists {
		t.Fatal("block still present after removal delay")
	}
	if c.NumBlocks() != 0 {
		t.Fatalf("NumBlocks = %d", c.NumBlocks())
	}
	checkInvariants(t, c)
	checkRespBytes(t, c)
}

func TestWriteThroughUserLink(t *testing.T) {
	eng, c := newTestCluster(t, 5, Config{Replicas: 2, UserWriteBPS: 8000}) // 1000 B/s
	k := keys.HashString("written")
	done := false
	c.Write(1, k, 2000, func() { done = true })
	eng.Run(time.Second)
	if done {
		t.Fatal("2000B write done in 1s at 1000B/s")
	}
	eng.Run(3 * time.Second)
	if !done {
		t.Fatal("write not completed")
	}
	if exists, avail := c.BlockStatus(k); !exists || !avail {
		t.Fatal("written block not available")
	}
	if c.WrittenBytes() != 2000 {
		t.Fatalf("WrittenBytes = %d", c.WrittenBytes())
	}
}

func TestFailureRegeneration(t *testing.T) {
	eng, c := newTestCluster(t, 10, Config{Replicas: 3, MigrationBPS: 8_000_000})
	// Insert blocks, fail one replica holder, and check the group
	// restocks to 3 actual copies.
	var ks []keys.Key
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 50; i++ {
		k := keys.Random(rng)
		ks = append(ks, k)
		c.PutInstant(k, 8192)
	}
	victim := int(c.blocks[c.byKey[ks[0]]].holders[0])
	c.NodeFail(victim)

	// Immediately after the failure the block is still available from
	// the surviving replicas.
	if _, avail := c.BlockStatus(ks[0]); !avail {
		t.Fatal("block unavailable right after a single failure with r=3")
	}
	eng.Run(time.Hour)
	for _, k := range ks {
		h := c.byKey[k]
		b := &c.blocks[h]
		up := 0
		for _, holder := range b.holders {
			if c.nodes[holder].Up {
				up++
			}
		}
		if up < 3 {
			t.Fatalf("block %s has %d live replicas after regeneration, want 3", k.Short(), up)
		}
	}
	if c.MigratedBytes() == 0 {
		t.Fatal("regeneration moved no bytes")
	}
	checkInvariants(t, c)
	checkRespBytes(t, c)
}

func TestRecoveryDropsStaleExtras(t *testing.T) {
	eng, c := newTestCluster(t, 8, Config{Replicas: 2, MigrationBPS: 8_000_000})
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 40; i++ {
		c.PutInstant(keys.Random(rng), 8192)
	}
	victim := 0
	heldBefore := c.nodes[victim].HeldBytes
	if heldBefore == 0 {
		t.Skip("node 0 holds nothing in this layout")
	}
	c.NodeFail(victim)
	eng.Run(time.Hour) // survivors regenerate
	c.NodeRecover(victim)
	eng.Run(2 * time.Hour)
	// After recovery and resync, every block must have exactly r actual
	// replicas on up nodes (extras dropped).
	for h := range c.blocks {
		b := &c.blocks[h]
		if !b.live {
			continue
		}
		if got := len(b.holders); got != 2 {
			t.Fatalf("block %s has %d holders after recovery, want 2", b.key.Short(), got)
		}
	}
	checkInvariants(t, c)
	checkRespBytes(t, c)
}

func TestTotalFailureThenRecovery(t *testing.T) {
	eng, c := newTestCluster(t, 4, Config{Replicas: 2, MigrationBPS: 8_000_000})
	k := keys.HashString("persistent")
	c.PutInstant(k, 8192)
	holders := append([]int32(nil), c.blocks[c.byKey[k]].holders...)
	for _, holder := range holders {
		c.NodeFail(int(holder))
	}
	if _, avail := c.BlockStatus(k); avail {
		t.Fatal("block available with every holder down")
	}
	eng.Run(30 * time.Minute)
	c.NodeRecover(int(holders[0]))
	eng.Run(2 * time.Hour) // regeneration retries find the source
	if _, avail := c.BlockStatus(k); !avail {
		t.Fatal("block not available after holder recovery")
	}
	checkInvariants(t, c)
}

func TestBalancerConvergesOnSkewedKeys(t *testing.T) {
	eng, c := newTestCluster(t, 30, Config{
		Replicas:             3,
		Balance:              true,
		MigrationBPS:         80_000_000,
		PointerStabilization: 10 * time.Minute,
	})
	// All keys in one narrow arc: the worst case for consistent hashing.
	base := keys.HashString("hotspot")
	k := base
	for i := 0; i < 3000; i++ {
		k = k.Next()
		c.PutInstant(k, 8192)
	}
	before := c.Imbalance()
	eng.Run(24 * time.Hour)
	after := c.Imbalance()
	if after >= before/2 {
		t.Fatalf("imbalance %0.3f -> %0.3f: balancer did not converge", before, after)
	}
	if ratio := c.MaxLoadRatio(); ratio > 5.5 {
		t.Fatalf("max/mean load ratio %.2f after balancing, want ≲ t+slack", ratio)
	}
	if c.Moves() == 0 {
		t.Fatal("balancer performed no moves")
	}
	checkInvariants(t, c)
	checkRespBytes(t, c)
}

func TestPointersKeepDataAvailableDuringMove(t *testing.T) {
	eng, c := newTestCluster(t, 20, Config{
		Replicas:             3,
		Balance:              true,
		MigrationBPS:         8_000_000,
		PointerStabilization: time.Hour,
	})
	base := keys.HashString("arc")
	k := base
	var ks []keys.Key
	for i := 0; i < 1000; i++ {
		k = k.Next()
		ks = append(ks, k)
		c.PutInstant(k, 8192)
	}
	// Probe availability continuously while the balancer reshuffles.
	failures := 0
	eng.Every(time.Minute, func() bool {
		for _, k := range ks[:50] {
			if _, avail := c.BlockStatus(k); !avail {
				failures++
			}
		}
		return true
	})
	eng.Run(6 * time.Hour)
	if failures != 0 {
		t.Fatalf("%d availability probes failed during pointer-based rebalancing", failures)
	}
	checkInvariants(t, c)
}

func TestPointerAblationMovesMoreData(t *testing.T) {
	run := func(disable bool) int64 {
		eng := &sim.Engine{}
		c := New(eng, Config{
			Nodes:                20,
			Replicas:             3,
			Balance:              true,
			DisablePointers:      disable,
			MigrationBPS:         80_000_000,
			PointerStabilization: 2 * time.Hour,
			Seed:                 11,
		})
		base := keys.HashString("ablation")
		k := base
		for i := 0; i < 2000; i++ {
			k = k.Next()
			c.PutInstant(k, 8192)
		}
		eng.Run(8 * time.Hour)
		return c.MigratedBytes()
	}
	withPointers := run(false)
	withoutPointers := run(true)
	if withoutPointers <= withPointers {
		t.Fatalf("pointers did not reduce migration: with=%d without=%d", withPointers, withoutPointers)
	}
}

func TestBalancerIdleOnUniformLoad(t *testing.T) {
	eng, c := newTestCluster(t, 20, Config{Replicas: 3, Balance: true, Seed: 5})
	rng := rand.New(rand.NewPCG(8, 9))
	for i := 0; i < 4000; i++ {
		c.PutInstant(keys.Random(rng), 8192)
	}
	eng.Run(6 * time.Hour)
	// Uniform keys under consistent hashing: some imbalance exists, but
	// moves should be few once loads are within the t=4 band.
	if c.Moves() > 40 {
		t.Fatalf("balancer churned %d moves on uniform load", c.Moves())
	}
	checkInvariants(t, c)
	checkRespBytes(t, c)
}

func TestAffectedArcCoversGroupChanges(t *testing.T) {
	_, c := newTestCluster(t, 12, Config{Replicas: 3})
	// For every member x: keys in affectedArc(x) are exactly those whose
	// replica group contains x.
	rng := rand.New(rand.NewPCG(10, 11))
	for trial := 0; trial < 50; trial++ {
		probe := keys.Random(rng)
		group := c.replicaNodes(probe)
		for rank := 0; rank < c.ring.Len(); rank++ {
			id := c.ring.At(rank)
			lo, hi := c.affectedArc(id)
			inArc := probe.Between(lo, hi)
			inGroup := false
			for _, g := range group {
				if g == c.nodeAt[rank] {
					inGroup = true
				}
			}
			if inGroup && !inArc {
				t.Fatalf("key %s in group of node %s but outside affectedArc",
					probe.Short(), id.Short())
			}
		}
	}
}

func TestManyRandomOpsKeepInvariants(t *testing.T) {
	eng, c := newTestCluster(t, 15, Config{
		Replicas:     3,
		Balance:      true,
		MigrationBPS: 8_000_000,
		Seed:         13,
	})
	rng := rand.New(rand.NewPCG(14, 15))
	var live []keys.Key
	for step := 0; step < 400; step++ {
		switch rng.IntN(10) {
		case 0, 1, 2, 3, 4:
			k := keys.Random(rng)
			c.PutInstant(k, int32(1+rng.IntN(8192)))
			live = append(live, k)
		case 5, 6:
			if len(live) > 0 {
				i := rng.IntN(len(live))
				c.Remove(live[i])
				live = append(live[:i], live[i+1:]...)
			}
		case 7:
			idx := rng.IntN(len(c.nodes))
			if c.nodes[idx].Up && c.ring.Len() > 4 {
				c.NodeFail(idx)
			}
		case 8:
			idx := rng.IntN(len(c.nodes))
			if !c.nodes[idx].Up {
				c.NodeRecover(idx)
			}
		case 9:
			eng.Run(eng.Now() + time.Duration(rng.IntN(3600))*time.Second)
		}
	}
	for _, n := range c.nodes {
		if !n.Up {
			c.NodeRecover(n.Idx)
		}
	}
	eng.Run(eng.Now() + 48*time.Hour)
	checkInvariants(t, c)
	checkRespBytes(t, c)
	// Every live block must be fully stocked after the dust settles.
	for h := range c.blocks {
		b := &c.blocks[h]
		if !b.live {
			continue
		}
		if !c.groupFullyStocked(b, int32(h)) {
			t.Fatalf("block %s not fully stocked at steady state (holders=%v fetching=%v pointers=%v)",
				b.key.Short(), b.holders, b.fetching, b.pointers)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}
	cfg.applyDefaults()
	if cfg.Replicas != 3 || ring.BalanceThreshold != 4 ||
		cfg.ProbeInterval != 10*time.Minute || cfg.PointerStabilization != time.Hour ||
		cfg.MigrationBPS != 750_000 || cfg.UserWriteBPS != 1_500_000 ||
		cfg.RemoveDelay != 30*time.Second {
		t.Errorf("defaults do not match §8.1: %+v", cfg)
	}
}

func TestSmallRingReplicaClamp(t *testing.T) {
	_, c := newTestCluster(t, 2, Config{Replicas: 3})
	k := keys.HashString("tiny")
	c.PutInstant(k, 100)
	h := c.byKey[k]
	if got := len(c.blocks[h].holders); got != 2 {
		t.Fatalf("2-node ring stored %d replicas, want 2", got)
	}
}

func ExampleCluster_BlockStatus() {
	eng := &sim.Engine{}
	c := New(eng, Config{Nodes: 5, Replicas: 3, Seed: 1})
	k := keys.HashString("/home/alice/notes.txt#1")
	c.PutInstant(k, 8192)
	exists, available := c.BlockStatus(k)
	fmt.Println(exists, available)
	// Output: true true
}
