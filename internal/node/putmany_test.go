package node

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs"
	"github.com/defragdht/d2/internal/store"
	"github.com/defragdht/d2/internal/transport"
)

// ringNet abstracts the two transports the write-path tests run on.
type ringNet struct {
	name     string
	endpoint func(t testing.TB) transport.Transport
}

func ringNets() []ringNet {
	mem := transport.NewMemNetwork(0)
	return []ringNet{
		{"mem", func(testing.TB) transport.Transport { return mem.NewEndpoint() }},
		{"tcp", func(t testing.TB) transport.Transport {
			tr, err := transport.ListenTCP("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}},
	}
}

// spacedID returns the i-th of n evenly spaced ring positions.
func spacedID(i, n int) keys.Key {
	var k keys.Key
	k[0] = byte((2*i + 1) * 256 / (2 * n))
	return k
}

// startSpacedRing boots n nodes at evenly spaced IDs, so which node owns
// which key is known to the test.
func startSpacedRing(t testing.TB, rn ringNet, n int, mutate func(i int, c *Config)) []*Node {
	t.Helper()
	nodes := make([]*Node, n)
	for i := range nodes {
		cfg := testConfig(uint64(i + 1))
		cfg.ID = spacedID(i, n)
		cfg.Events = obs.NewEventLog(256)
		if mutate != nil {
			mutate(i, &cfg)
		}
		nodes[i] = Start(rn.endpoint(t), cfg)
		if i > 0 {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			err := nodes[i].Join(ctx, nodes[0].Self().Addr)
			cancel()
			if err != nil {
				t.Fatalf("node %d join: %v", i, err)
			}
		}
	}
	waitConverged(t, nodes, 10*time.Second)
	// Every node needs its true replica group — the next two nodes in ID
	// order — before holders are counted.
	groups := func() bool {
		for i, nd := range nodes {
			_, succs := nd.Neighbors()
			for j := 0; j < 2 && n > 2; j++ {
				if len(succs) <= j || succs[j].Addr != nodes[(i+1+j)%n].Self().Addr {
					return false
				}
			}
		}
		return true
	}
	for deadline := time.Now().Add(10 * time.Second); !groups(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("successor lists did not settle")
		}
	}
	return nodes
}

func clientOn(t testing.TB, rn ringNet, nodes []*Node) *Client {
	t.Helper()
	c, err := NewClient(rn.endpoint(t), ClientConfig{
		Seeds:    []transport.Addr{nodes[0].Self().Addr, nodes[len(nodes)-1].Self().Addr},
		Replicas: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// spreadBatch builds a batch covering the whole ring — one key in every
// 1/32 of the key space — plus a run of 40 neighbouring keys, more than
// one MultiPut's worth under a single owner. The order is deliberately not
// key order.
func spreadBatch(tag string) ([]keys.Key, [][]byte) {
	var ks []keys.Key
	for i := 0; i < 32; i++ {
		var k keys.Key
		k[0], k[1] = byte(i*8+3), 0x77
		ks = append(ks, k)
	}
	run := keys.Key{0x42}
	for b := 0; b < 40; b++ {
		ks = append(ks, run.WithBlock(uint64(b+1)))
	}
	for i, j := 0, len(ks)-1; i < j; i, j = i+2, j-2 {
		ks[i], ks[j] = ks[j], ks[i]
	}
	data := make([][]byte, len(ks))
	for i, k := range ks {
		data[i] = []byte(fmt.Sprintf("%s-%s", tag, k.Short()))
	}
	return ks, data
}

// holders returns the addresses of the nodes storing k.
func holders(nodes []*Node, k keys.Key, want []byte) (addrs []transport.Addr, wrong int) {
	for _, nd := range nodes {
		if b, ok := nd.Store().Get(k); ok {
			addrs = append(addrs, nd.Self().Addr)
			if !bytes.Equal(b.Data, want) {
				wrong++
			}
		}
	}
	return addrs, wrong
}

// TestPutMany: a batch spanning every owner lands, block for block, on
// exactly the r nodes responsible for it; and a batch sent through a
// stale lookup cache — its owner gone — is re-resolved and stored.
func TestPutMany(t *testing.T) {
	for _, rn := range ringNets() {
		t.Run(rn.name, func(t *testing.T) {
			const n = 5
			nodes := startSpacedRing(t, rn, n, func(_ int, c *Config) {
				c.RepairInterval = time.Hour // holders are the write path's doing alone
			})
			defer func() { closeAll(t, nodes) }()
			c := clientOn(t, rn, nodes)
			defer c.Close()
			ctx := context.Background()

			ks, data := spreadBatch("v1")
			if err := c.PutMany(ctx, ks, data); err != nil {
				t.Fatalf("PutMany: %v", err)
			}
			if err := c.PutMany(ctx, ks[:2], data[:1]); err == nil {
				t.Fatal("PutMany accepted 2 keys with 1 payload")
			}
			owners := map[transport.Addr]bool{}
			for i, k := range ks {
				addrs, wrong := holders(nodes, k, data[i])
				if len(addrs) != 3 || wrong != 0 {
					t.Fatalf("key %s is on %d nodes (%d with other content), want exactly 3", k.Short(), len(addrs), wrong)
				}
				// The owner is the first node at or after the key; the
				// replicas are the two after it.
				o := 0
				for o < n && nodes[o].Self().ID.Less(k) {
					o++
				}
				for j := 0; j < 3; j++ {
					want := nodes[(o+j)%n].Self().Addr
					found := false
					for _, a := range addrs {
						found = found || a == want
					}
					if !found {
						t.Fatalf("key %s is not on %s, number %d of its replica group", k.Short(), want, j)
					}
				}
				owners[nodes[o%n].Self().Addr] = true
			}
			if len(owners) != n {
				t.Fatalf("the batch reached %d owners, want all %d", len(owners), n)
			}
			got, err := c.GetMany(ctx, ks)
			if err != nil || len(got) != len(ks) {
				t.Fatalf("GetMany after PutMany: %d of %d blocks, %v", len(got), len(ks), err)
			}
			var served, batches uint64
			for _, nd := range nodes {
				h := nd.Metrics().Snapshot().Histograms["d2_node_multiput_blocks"]
				batches += h.Count()
				served += uint64(h.Sum)
			}
			// Every block is served three times: by its owner and by the
			// two successors the owner forwards to.
			if served != 3*uint64(len(ks)) {
				t.Fatalf("d2_node_multiput_blocks counted %d blocks in %d batches, want %d blocks", served, batches, 3*len(ks))
			}

			// Kill the owner of the 40-block run. The client's cache still
			// names it: the first attempt fails, the retry re-resolves.
			run := keys.Key{0x42}.WithBlock(1)
			owner, err := c.Lookup(ctx, run)
			if err != nil {
				t.Fatal(err)
			}
			var rest []*Node
			for _, nd := range nodes {
				if nd.Self().Addr == owner.Addr {
					if err := nd.Close(); err != nil {
						t.Fatal(err)
					}
					continue
				}
				rest = append(rest, nd)
			}
			nodes = rest
			waitConverged(t, nodes, 10*time.Second)
			ks2, data2 := spreadBatch("v2")
			if err := c.PutMany(ctx, ks2, data2); err != nil {
				t.Fatalf("PutMany through a stale cache: %v", err)
			}
			for i, k := range ks2 {
				got, err := c.Get(ctx, k)
				if err != nil || !bytes.Equal(got, data2[i]) {
					t.Fatalf("key %s after the owner died: %q, %v", k.Short(), got, err)
				}
			}
		})
	}
}

// TestMultiPutAcksWithoutSuccessors: the ack waits for the forwards but
// does not depend on them — with both successors dead it still arrives,
// promptly, and every failed forward is counted and logged with its peer.
func TestMultiPutAcksWithoutSuccessors(t *testing.T) {
	for _, rn := range ringNets() {
		t.Run(rn.name, func(t *testing.T) {
			// Two endpoints that answer nothing: closed before use.
			var dead []transport.PeerInfo
			for i := 0; i < 2; i++ {
				ep := rn.endpoint(t)
				dead = append(dead, transport.PeerInfo{ID: spacedID(i+1, 3), Addr: ep.Addr()})
				ep.Close()
			}
			cfg := testConfig(1)
			cfg.ID = spacedID(0, 3)
			cfg.StabilizeInterval = time.Hour // the successor list stays as the test sets it
			cfg.RepairInterval = time.Hour
			cfg.Events = obs.NewEventLog(64)
			nd := Start(rn.endpoint(t), cfg)
			defer nd.Close()
			nd.mu.Lock()
			nd.succs = dead
			nd.mu.Unlock()

			ks, data := spreadBatch("lonely")
			ks, data = ks[:10], data[:10]
			start := time.Now()
			resp, err := nd.handle(context.Background(), "test", &transport.MultiPutReq{Keys: ks, Data: data, Replicate: true})
			if _, ok := resp.(*transport.MultiPutResp); !ok || err != nil {
				t.Fatalf("MultiPut with dead successors = %T, %v; want an ack", resp, err)
			}
			if took := time.Since(start); took > 5*time.Second {
				t.Fatalf("the ack took %v", took)
			}
			for i, k := range ks {
				if b, ok := nd.Store().Get(k); !ok || !bytes.Equal(b.Data, data[i]) {
					t.Fatalf("acknowledged block %s is not stored", k.Short())
				}
			}
			if n := nd.Metrics().Snapshot().Counters["d2_node_replica_forward_errors_total"]; n != 2 {
				t.Fatalf("d2_node_replica_forward_errors_total = %d, want 2", n)
			}
			for _, p := range dead {
				named := false
				for _, ev := range nd.Events().Events() {
					named = named || ev.Name == "replica.forward_error" && strings.Contains(ev.Fields, "peer="+string(p.Addr))
				}
				if !named {
					t.Fatalf("no replica.forward_error event names %s: %v", p.Addr, nd.Events().Events())
				}
			}

			// The single-block path shares the helper.
			nd.handle(context.Background(), "test", &transport.PutReq{Key: ks[0], Data: data[0], Replicate: true})
			nd.handle(context.Background(), "test", &transport.RemoveReq{Key: ks[0], Replicate: true})
			if n := nd.Metrics().Snapshot().Counters["d2_node_replica_forward_errors_total"]; n != 6 {
				t.Fatalf("d2_node_replica_forward_errors_total = %d after a put and a remove, want 6", n)
			}
		})
	}
}

// failingEngine is an engine whose batch path reports a disk failure.
type failingEngine struct {
	store.Engine
	fail atomic.Bool
}

var errEngine = errors.New("injected engine failure")

func (e *failingEngine) PutBatch(ks []keys.Key, data [][]byte, ttl time.Duration, now time.Time) error {
	if e.fail.Load() {
		return errEngine
	}
	for i, k := range ks {
		e.Put(k, data[i], ttl, now)
	}
	return nil
}

// TestMultiPutNoAckWithoutDurability: an owner whose engine cannot make
// the batch durable answers with an error, and PutMany returns it.
func TestMultiPutNoAckWithoutDurability(t *testing.T) {
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

			ks, data := spreadBatch("durable")
			if err := c.PutMany(ctx, ks, data); err != nil {
				t.Fatalf("PutMany on healthy engines: %v", err)
			}
			engines[1].fail.Store(true)
			err := c.PutMany(ctx, ks, data)
			if err == nil || !strings.Contains(err.Error(), errEngine.Error()) {
				t.Fatalf("PutMany with a failing owner = %v, want the engine's failure", err)
			}
			engines[1].fail.Store(false)
			if err := c.PutMany(ctx, ks, data); err != nil {
				t.Fatalf("PutMany after the engine healed: %v", err)
			}
		})
	}
}

// TestPutCancelsPendingRemoval: a block stored again while its delayed
// removal is pending stays — on the primary and on the replicas.
func TestPutCancelsPendingRemoval(t *testing.T) {
	rn := ringNets()[0]
	nodes := startSpacedRing(t, rn, 3, nil) // RemoveDelay 50 ms
	defer closeAll(t, nodes)
	c := clientOn(t, rn, nodes)
	defer c.Close()
	ctx := context.Background()

	ks, data := spreadBatch("keep")
	if err := c.PutMany(ctx, ks, data); err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		if err := c.Remove(ctx, k); err != nil {
			t.Fatal(err)
		}
	}
	// Half through the batch path, half through the single-block path.
	half := len(ks) / 2
	if err := c.PutMany(ctx, ks[:half], data[:half]); err != nil {
		t.Fatal(err)
	}
	for i := half; i < len(ks)-1; i++ {
		if err := c.Put(ctx, ks[i], data[i]); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(4 * testConfig(0).RemoveDelay)
	for i, k := range ks[:len(ks)-1] {
		if addrs, wrong := holders(nodes, k, data[i]); len(addrs) != 3 || wrong != 0 {
			t.Fatalf("key %s stored again after its removal is on %d nodes, want 3", k.Short(), len(addrs))
		}
	}
	// The one key not stored again is gone everywhere.
	if addrs, _ := holders(nodes, ks[len(ks)-1], nil); len(addrs) != 0 {
		t.Fatalf("removed key still on %d nodes", len(addrs))
	}
}
