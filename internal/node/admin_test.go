package node

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs"
	"github.com/defragdht/d2/internal/transport"
)

// TestWalkRing checks that a ring walk enumerates every member exactly
// once, in ring order.
func TestWalkRing(t *testing.T) {
	net := transport.NewMemNetwork(0)
	nodes := startRing(t, net, 6, nil)
	defer closeAll(t, nodes)
	c := newClient(t, net, nodes)
	defer c.Close()

	members, err := c.WalkRing(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != len(nodes) {
		t.Fatalf("walk found %d members, want %d", len(members), len(nodes))
	}
	seen := make(map[transport.Addr]bool)
	for _, m := range members {
		if seen[m.Self.Addr] {
			t.Fatalf("member %s visited twice", m.Self.Addr)
		}
		seen[m.Self.Addr] = true
	}
	// Walk order must follow the successor chain.
	for i, m := range members {
		next := members[(i+1)%len(members)]
		if len(m.Succs) == 0 || m.Succs[0].Addr != next.Self.Addr {
			t.Fatalf("walk order broken at %s", m.Self.Addr)
		}
	}
}

// TestWalkRingSkipsDeadMember checks that the walk routes around an
// unreachable node via the previous member's successor list.
func TestWalkRingSkipsDeadMember(t *testing.T) {
	net := transport.NewMemNetwork(0)
	nodes := startRing(t, net, 6, nil)
	defer closeAll(t, nodes)
	c := newClient(t, net, nodes)
	defer c.Close()

	ctx := context.Background()
	members, err := c.WalkRing(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the third member in walk order (not a seed).
	dead := members[2].Self.Addr
	for _, n := range nodes {
		if n.Self().Addr == dead {
			if err := n.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	members, err = c.WalkRing(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != len(nodes)-1 {
		t.Fatalf("walk found %d members, want %d", len(members), len(nodes)-1)
	}
	for _, m := range members {
		if m.Self.Addr == dead {
			t.Fatalf("dead member %s appeared in walk", dead)
		}
	}
}

// TestClusterStats exercises the full scrape path: traffic through the
// client, a StatsReq to every ring member, and a merged snapshot holding
// both server-side RPC counters and the client's cache counters.
func TestClusterStats(t *testing.T) {
	net := transport.NewMemNetwork(0)
	netReg := obs.New()
	net.UseMetrics(transport.NewRPCMetrics(netReg))
	nodes := startRing(t, net, 5, nil)
	defer closeAll(t, nodes)
	c := newClient(t, net, nodes)
	defer c.Close()

	ctx := context.Background()
	var total int64
	for i := 0; i < 20; i++ {
		k := keys.HashString(string(rune('a' + i)))
		data := make([]byte, 64+i)
		if err := c.Put(ctx, k, data); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get(ctx, k); err != nil {
			t.Fatal(err)
		}
		total += int64(len(data))
	}

	stats, err := c.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != len(nodes) {
		t.Fatalf("scraped %d nodes, want %d", len(stats), len(nodes))
	}

	var stored, blocks int64
	snaps := make([]obs.Snapshot, 0, len(stats)+1)
	for _, ns := range stats {
		stored += ns.StoredBytes
		blocks += ns.Blocks
		if ns.Snapshot.Counters == nil {
			t.Fatalf("node %s returned empty snapshot", ns.Self.Addr)
		}
		snaps = append(snaps, ns.Snapshot)
	}
	if blocks == 0 || stored < total {
		t.Fatalf("cluster totals blocks=%d stored=%d, want >0 and >=%d", blocks, stored, total)
	}

	merged := obs.MergeAll(snaps...)
	if got := merged.Gauges["d2_node_store_bytes"]; got < total {
		t.Fatalf("merged store gauge %d, want >= %d", got, total)
	}

	// The mem network records per-RPC transport counters in one shared
	// registry (d2node instead shares the node's registry with its
	// transport); merging it in must surface the served-RPC counters.
	merged = obs.MergeAll(append(snaps, netReg.Snapshot())...)
	var served uint64
	for name, v := range merged.Counters {
		if len(name) > len("d2_rpc_server_total") && name[:len("d2_rpc_server_total")] == "d2_rpc_server_total" {
			served += v
		}
	}
	if served == 0 {
		t.Fatal("merged snapshot has no served RPCs after traffic")
	}

	// The client-side registry carries the lookup-cache counters; merging
	// it in must surface them.
	merged = obs.MergeAll(append(snaps, c.Metrics().Snapshot())...)
	hits := merged.Counters["d2_client_cache_hits_total"]
	misses := merged.Counters["d2_client_cache_misses_total"]
	if hits+misses == 0 {
		t.Fatal("merged snapshot missing client cache counters")
	}
	wantHits, wantMisses := c.Stats()
	if hits != wantHits || misses != wantMisses {
		t.Fatalf("merged cache counters %d/%d, want %d/%d", hits, misses, wantHits, wantMisses)
	}
}

// TestClusterStatsRejectsGarbageSnapshot: a member whose metrics document
// does not parse is left out like an unreachable one, never returned as an
// all-zero node; when no member parses, the error names the member.
func TestClusterStatsRejectsGarbageSnapshot(t *testing.T) {
	net := transport.NewMemNetwork(0)
	// Two hand-made ring members pointing at each other.
	eps := []transport.Transport{net.NewEndpoint(), net.NewEndpoint()}
	peers := []transport.PeerInfo{
		{ID: keys.Key{0x40}, Addr: eps[0].Addr()},
		{ID: keys.Key{0xc0}, Addr: eps[1].Addr()},
	}
	snapshots := [][]byte{[]byte(`{"counters":{"x":1}}`), []byte(`{"counters":`)}
	for i, ep := range eps {
		self, other, snap := peers[i], peers[1-i], &snapshots[i]
		ep.Serve(func(_ context.Context, _ transport.Addr, req transport.Message) (transport.Message, error) {
			switch req.(type) {
			case *transport.NeighborsReq:
				return &transport.NeighborsResp{Self: self, Pred: other, Succs: []transport.PeerInfo{other}}, nil
			case *transport.StatsReq:
				return &transport.StatsResp{Self: self, Pred: other, Blocks: 7, SnapshotJSON: *snap}, nil
			}
			return nil, errors.New("not served")
		})
		defer ep.Close()
	}
	c, err := NewClient(net.NewEndpoint(), ClientConfig{Seeds: []transport.Addr{peers[0].Addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	stats, err := c.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Self.Addr != peers[0].Addr || stats[0].Snapshot.Counters["x"] != 1 {
		t.Fatalf("ClusterStats = %+v, want only the member whose snapshot parses", stats)
	}

	snapshots[0] = []byte("not json")
	stats, err = c.ClusterStats(ctx)
	if err == nil || len(stats) != 0 {
		t.Fatalf("ClusterStats with no parsable snapshot = %d nodes, %v; want an error", len(stats), err)
	}
	if !strings.Contains(err.Error(), string(peers[0].Addr)) && !strings.Contains(err.Error(), string(peers[1].Addr)) {
		t.Fatalf("error %q does not name a member", err)
	}
}
