package main

import (
	"context"
	"fmt"
	"sort"
	"strings"

	d2 "github.com/defragdht/d2"
	"github.com/defragdht/d2/internal/obs"
	"github.com/defragdht/d2/internal/stats"
)

// runStats scrapes every ring member (StatsReq over the DHT transport),
// merges the snapshots with the local client's own, and prints a
// cluster-wide summary: totals, the §10 load-imbalance metric, the lookup
// cache hit rate, and per-RPC latency percentiles.
func runStats(ctx context.Context, client *d2.Client) error {
	nodes, err := client.ClusterStats(ctx)
	if err != nil {
		return err
	}
	if len(nodes) == 0 {
		return fmt.Errorf("no reachable nodes")
	}

	snaps := make([]obs.Snapshot, 0, len(nodes)+1)
	var stored, blocks int64
	loads := make([]float64, 0, len(nodes))
	for _, n := range nodes {
		snaps = append(snaps, n.Snapshot)
		stored += n.StoredBytes
		blocks += n.Blocks
		loads = append(loads, float64(n.RespBytes))
	}
	// The client's own registry carries the lookup-cache counters (§5
	// caching happens client-side) and its per-RPC latency view.
	snaps = append(snaps, client.MetricsSnapshot())
	merged := obs.MergeAll(snaps...)

	fmt.Printf("cluster: %d nodes, %d blocks, %s stored\n",
		len(nodes), blocks, fmtBytes(stored))
	fmt.Printf("load imbalance (stddev/mean of primary load, §10): %.3f\n",
		stats.NormStdDev(loads))

	// One extra scrape builds the cluster-level census view (§5 locality
	// and frag ratio are cross-node properties a summed gauge can't give).
	if _, cc, err := client.ClusterCensus(ctx); err == nil && cc != nil && cc.TotalFiles > 0 {
		fmt.Printf("placement census: %.3f runs/file, locality %.3f, %d files, %d stale pointers (%s)\n",
			cc.FragRatio, cc.Locality, cc.TotalFiles, cc.StalePointers, cc.State)
	}

	hits := merged.Counters["d2_client_cache_hits_total"]
	misses := merged.Counters["d2_client_cache_misses_total"]
	if hits+misses > 0 {
		fmt.Printf("lookup cache: %d hits, %d misses (%.1f%% hit rate)\n",
			hits, misses, 100*float64(hits)/float64(hits+misses))
	}

	printCounterGroup(merged, "d2_rpc_server_total", "rpcs served")
	printCounterGroup(merged, "d2_node_", "node activity")
	printCounterGroup(merged, "d2_tcp_", "tcp transport")
	printCounterGroup(merged, "d2_stream_", "streaming reads")
	printCounterGroup(merged, "d2_store_", "durable store")
	printGaugeGroup(merged, "connection pools / streams", "d2_tcp_pool_", "d2_stream_")
	printGaugeGroup(merged, "durable store", "d2_store_")
	printGaugeGroup(merged, "placement census (summed across nodes)", "d2_census_")
	printLatencies(merged)
	printBatchSizes(merged)
	return nil
}

// runTop prints a per-node hotspot table sorted by primary load.
func runTop(ctx context.Context, client *d2.Client) error {
	nodes, err := client.ClusterStats(ctx)
	if err != nil {
		return err
	}
	if len(nodes) == 0 {
		return fmt.Errorf("no reachable nodes")
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].RespBytes > nodes[j].RespBytes })

	fmt.Printf("%-22s %-10s %8s %10s %10s %10s %10s %6s %9s %9s %8s\n",
		"ADDR", "ID", "BLOCKS", "STORED", "PRIMARY", "SERVED", "REDIRECTS", "POOL", "FAILFAST", "WAL", "LOCALITY")
	for _, n := range nodes {
		var served uint64
		for name, v := range n.Snapshot.Counters {
			if strings.HasPrefix(name, "d2_rpc_server_total{") {
				served += v
			}
		}
		// In-memory nodes carry no d2_store_ series; the column reads 0B.
		wal := fmtBytes(n.Snapshot.Gauges["d2_store_wal_size_bytes"])
		// Per-node locality from the census gauges: owner switches a
		// sequential scan of this node's files would incur, per file
		// (0.00 = every local file is one contiguous run).
		locality := "-"
		if files := n.Snapshot.Gauges["d2_census_files"]; files > 0 {
			sw := n.Snapshot.Gauges["d2_census_owner_switches"]
			locality = fmt.Sprintf("%.2f", float64(sw)/float64(files))
		}
		fmt.Printf("%-22s %-10s %8d %10s %10s %10d %10d %6d %9d %9s %8s\n",
			n.Self.Addr, n.Self.ID.Short(), n.Blocks,
			fmtBytes(n.StoredBytes), fmtBytes(n.RespBytes),
			served, n.Snapshot.Counters["d2_node_ptr_redirects_total"],
			n.Snapshot.Gauges["d2_tcp_pool_conns"],
			n.Snapshot.Counters["d2_tcp_pool_failfast_total"],
			wal, locality)
	}
	return nil
}

// printCounterGroup prints the non-zero counters sharing a name prefix.
func printCounterGroup(s obs.Snapshot, prefix, title string) {
	type kv struct {
		name string
		v    uint64
	}
	var rows []kv
	for name, v := range s.Counters {
		if v > 0 && strings.HasPrefix(name, prefix) {
			rows = append(rows, kv{name, v})
		}
	}
	if len(rows) == 0 {
		return
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	fmt.Printf("%s:\n", title)
	for _, r := range rows {
		fmt.Printf("  %-48s %12d\n", r.name, r.v)
	}
}

// printGaugeGroup prints the non-zero gauges matching any of the name
// prefixes (pool occupancy, stream throughput — values that a counter
// group can't carry).
func printGaugeGroup(s obs.Snapshot, title string, prefixes ...string) {
	type kv struct {
		name string
		v    int64
	}
	var rows []kv
	for name, v := range s.Gauges {
		if v == 0 {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				rows = append(rows, kv{name, v})
				break
			}
		}
	}
	if len(rows) == 0 {
		return
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	fmt.Printf("%s:\n", title)
	for _, r := range rows {
		fmt.Printf("  %-48s %12d\n", r.name, r.v)
	}
}

// printLatencies prints p50/p95/p99 for every per-RPC latency histogram
// with observations, plus the streaming-read TTFB histogram.
func printLatencies(s obs.Snapshot) {
	var names []string
	for name := range s.Histograms {
		if (strings.HasPrefix(name, "d2_rpc_client_latency_ns") ||
			name == "d2_stream_ttfb_ns" ||
			name == "d2_store_wal_fsync_ns") && s.Histograms[name].Count() > 0 {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	fmt.Println("latency (client-observed):")
	for _, name := range names {
		h := s.Histograms[name]
		label := strings.TrimSuffix(strings.TrimPrefix(name, `d2_rpc_client_latency_ns{rpc="`), `"}`)
		switch name {
		case "d2_stream_ttfb_ns":
			label = "stream_ttfb"
		case "d2_store_wal_fsync_ns":
			label = "wal_fsync"
		}
		fmt.Printf("  %-12s n=%-8d p50=%-10s p95=%-10s p99=%s\n",
			label, h.Count(),
			fmtNanos(h.Quantile(0.50)), fmtNanos(h.Quantile(0.95)), fmtNanos(h.Quantile(0.99)))
	}
}

// printBatchSizes prints the write path's two batch-size histograms next
// to each other: blocks per MultiPut served (node group) and WAL records
// made durable per fsync (store group). Both near 1 means every block is
// paying its own round trip and its own fsync.
func printBatchSizes(s obs.Snapshot) {
	rows := []struct{ name, label string }{
		{"d2_node_multiput_blocks", "node  blocks per multi_put"},
		{"d2_store_group_commit_records", "store records per wal fsync"},
	}
	printed := false
	for _, r := range rows {
		h, ok := s.Histograms[r.name]
		if !ok || h.Count() == 0 {
			continue
		}
		if !printed {
			fmt.Println("write batching:")
			printed = true
		}
		fmt.Printf("  %-28s n=%-8d mean=%-7.1f p50=%-6.0f p99=%.0f\n",
			r.label, h.Count(), h.Mean(), h.Quantile(0.50), h.Quantile(0.99))
	}
}

// fmtBytes renders a byte count with a binary unit.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// fmtNanos renders a nanosecond quantile with a readable unit.
func fmtNanos(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
