package node

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs"
	"github.com/defragdht/d2/internal/obs/tracing"
	"github.com/defragdht/d2/internal/transport"
)

// BenchmarkBatchedRead measures reading a 64-block file three ways:
//
//   - place=d2/mode=batched    — contiguous D2 keys via GetMany: the keys
//     fall on a handful of owners, so the read costs ~one RPC per owner.
//   - place=d2/mode=perblock   — the same keys read one Get at a time,
//     the pre-batching client (one RPC per block even with a warm cache).
//   - place=hashed/mode=batched — hashed block placement via GetMany:
//     batching cannot help when every block lives on a different node.
//
// The mem variants run the acceptance configuration (50 nodes in one
// process); the tcp variants run a smaller real-socket ring and also
// exercise the pipelined transport. rpcs/op reports the client RPC count
// per whole-file read.
func BenchmarkBatchedRead(b *testing.B) {
	const blocks = 64
	b.Run("transport=mem", func(b *testing.B) {
		// 100µs simulated one-way delay: without it every mem call is a
		// function call and the latency numbers say nothing about RPC
		// round trips.
		net := transport.NewMemNetwork(100 * time.Microsecond)
		nodes := startRing(b, net, 50, nil)
		defer closeAll(b, nodes)
		c := newClient(b, net, nodes)
		defer c.Close()
		benchPlacements(b, c, blocks)
	})
	b.Run("transport=tcp", func(b *testing.B) {
		nodes, cleanup := startTCPRing(b, 16)
		defer cleanup()
		c := newTCPClient(b, nodes)
		defer c.Close()
		benchPlacements(b, c, blocks)
	})
}

func benchPlacements(b *testing.B, c *Client, blocks int) {
	ctx := context.Background()

	d2Keys := make([]keys.Key, blocks)
	base := keys.HashString("bench-file").FileBase()
	for i := range d2Keys {
		d2Keys[i] = base.WithBlock(uint64(i + 1))
	}
	hashedKeys := make([]keys.Key, blocks)
	for i := range hashedKeys {
		hashedKeys[i] = keys.HashString(fmt.Sprintf("bench-file/block%d", i))
	}
	payload := make([]byte, 8<<10)
	for _, ks := range [][]keys.Key{d2Keys, hashedKeys} {
		for _, k := range ks {
			if err := c.Put(ctx, k, payload); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("place=d2/mode=batched", func(b *testing.B) {
		benchRead(b, c, func() error {
			got, err := c.GetMany(ctx, d2Keys)
			if err == nil && len(got) != blocks {
				err = fmt.Errorf("got %d blocks, want %d", len(got), blocks)
			}
			return err
		})
	})
	b.Run("place=d2/mode=perblock", func(b *testing.B) {
		benchRead(b, c, func() error {
			for _, k := range d2Keys {
				if _, err := c.Get(ctx, k); err != nil {
					return err
				}
			}
			return nil
		})
	})
	b.Run("place=hashed/mode=batched", func(b *testing.B) {
		benchRead(b, c, func() error {
			got, err := c.GetMany(ctx, hashedKeys)
			if err == nil && len(got) != blocks {
				err = fmt.Errorf("got %d blocks, want %d", len(got), blocks)
			}
			return err
		})
	})
	b.Run("place=hashed/mode=perblock", func(b *testing.B) {
		benchRead(b, c, func() error {
			for _, k := range hashedKeys {
				if _, err := c.Get(ctx, k); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

// benchRead runs one whole-file read per iteration and reports the RPC
// and byte cost alongside the timing, taken from the client's registry.
func benchRead(b *testing.B, c *Client, read func() error) {
	if err := read(); err != nil { // warm the lookup cache once
		b.Fatal(err)
	}
	before := c.Metrics().Snapshot()
	start := c.RPCs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := read(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := c.Metrics().Snapshot()
	perOp := func(name string) float64 {
		return float64(after.Counters[name]-before.Counters[name]) / float64(b.N)
	}
	b.ReportMetric(float64(c.RPCs()-start)/float64(b.N), "rpcs/op")
	b.ReportMetric(perOp("d2_client_cache_hits_total"), "cachehits/op")
	// Payload bytes exist when the client's transport shares its registry
	// (the TCP bench client; the mem network's metrics are network-wide).
	if recv := perOp(`d2_rpc_payload_bytes_total{dir="recv"}`); recv > 0 {
		b.ReportMetric(recv, "recvB/op")
	}
}

// startTCPRing boots n nodes on real sockets and waits for convergence.
func startTCPRing(b *testing.B, n int) ([]*Node, func()) {
	b.Helper()
	nodes := make([]*Node, n)
	trs := make([]*transport.TCPTransport, n)
	cleanup := func() {
		for _, nd := range nodes {
			if nd != nil {
				nd.Close()
			}
		}
	}
	for i := 0; i < n; i++ {
		tr, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			cleanup()
			b.Fatal(err)
		}
		trs[i] = tr
		nodes[i] = Start(tr, testConfig(uint64(i+1)))
		if i > 0 {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			err := nodes[i].Join(ctx, nodes[0].Self().Addr)
			cancel()
			if err != nil {
				cleanup()
				b.Fatalf("node %d join: %v", i, err)
			}
		}
	}
	waitConverged(b, nodes, 30*time.Second)
	return nodes, cleanup
}

func newTCPClient(b *testing.B, nodes []*Node) *Client {
	b.Helper()
	tr, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	// Share one registry between the client and its transport so the
	// benchmark can report per-op payload bytes.
	reg := obs.New()
	tr.UseMetrics(transport.NewRPCMetrics(reg))
	c, err := NewClient(tr, ClientConfig{
		Seeds:    []transport.Addr{nodes[0].Self().Addr, nodes[len(nodes)-1].Self().Addr},
		Replicas: 3,
		Metrics:  reg,
		// Sampling starts off: the bench numbers double as proof that an
		// idle tracer costs nothing on the read path.
		Tracer: tracing.New(tracing.Config{Node: "bench-client"}),
	})
	if err != nil {
		b.Fatal(err)
	}
	return c
}
