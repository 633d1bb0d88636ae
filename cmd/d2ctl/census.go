package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	d2 "github.com/defragdht/d2"
	"github.com/defragdht/d2/internal/obs/census"
)

// errClusterFailing makes frag/doctor exit non-zero when the cluster is
// in a failing state, so scripts can gate on placement health.
var errClusterFailing = fmt.Errorf("cluster state is failing")

// runFrag prints the cluster fragmentation report from the merged
// placement census: §5 locality and frag-ratio scores, the per-volume
// run-length distribution, and a per-node role breakdown. With volFilter
// only matching volumes are shown (a hex volume-ID prefix). Exits
// non-zero when the census classifies the cluster as failing.
func runFrag(ctx context.Context, client *d2.Client, volFilter string, jsonOut bool) error {
	nodes, cluster, err := client.ClusterCensus(ctx)
	if err != nil {
		return err
	}
	if len(nodes) == 0 {
		return fmt.Errorf("no reachable nodes")
	}
	if jsonOut {
		if err := printJSON(cluster); err != nil {
			return err
		}
		if cluster.State == "failing" {
			return errClusterFailing
		}
		return nil
	}

	fmt.Printf("placement census: %d nodes, %d blocks, %s primary\n",
		len(nodes), cluster.TotalBlocks, fmtBytes(cluster.TotalBytes))
	fmt.Printf("state: %s\n", strings.ToUpper(cluster.State))
	fmt.Printf("locality (owner switches per file scan, §5): %.3f\n", cluster.Locality)
	fmt.Printf("frag ratio (runs per file, 1.0 = defragmented): %.3f (warn >= %.1f, fail >= %.1f)\n",
		cluster.FragRatio, census.FragWarn, census.FragFail)
	fmt.Printf("load imbalance (stddev/mean of primary bytes, §10): %.3f\n", cluster.Imbalance)
	fmt.Printf("replica spread (stddev/mean of replica bytes): %.3f\n", cluster.ReplicaSpread)
	if cluster.StalePointers > 0 {
		fmt.Printf("stale pointers: %d\n", cluster.StalePointers)
	}

	shown := 0
	for i := range cluster.Volumes {
		v := &cluster.Volumes[i]
		if volFilter != "" && !strings.HasPrefix(v.Volume, volFilter) {
			continue
		}
		shown++
		fmt.Printf("\nvolume %s: %d blocks (%s), %d files, %d runs, frag %.3f, longest run %d\n",
			v.Volume, v.Blocks, fmtBytes(v.Bytes), v.Files, v.Runs, v.FragRatio(), v.MaxRun)
		printRunHist(v.RunHist)
	}
	if volFilter != "" && shown == 0 {
		return fmt.Errorf("no volume matching %q in the census (labels are hex volume-ID prefixes; try frag with no argument)", volFilter)
	}

	fmt.Printf("\n%-22s %-10s %8s %10s %10s %10s %6s %6s\n",
		"ADDR", "ID", "FILES", "PRIMARY", "REPLICA", "POINTER", "STALE", "FRAG")
	for _, n := range nodes {
		r := n.Report
		if r == nil {
			fmt.Printf("%-22s %-10s %8s (no census report)\n", n.Self.Addr, n.Self.ID.Short(), "-")
			continue
		}
		fmt.Printf("%-22s %-10s %8d %10s %10s %10s %6d %6.2f\n",
			n.Self.Addr, n.Self.ID.Short(), r.Files,
			fmtBytes(r.PrimaryBytes), fmtBytes(r.ReplicaBytes), fmtBytes(r.PointerBytes),
			r.StalePointers, r.FragRatio())
	}

	if cluster.State == "failing" {
		return errClusterFailing
	}
	return nil
}

// printRunHist renders a power-of-two run-length histogram: bucket i
// counts runs of length in (2^(i-1), 2^i].
func printRunHist(hist [census.RunBuckets]int64) {
	var max int64
	for _, c := range hist {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		return
	}
	fmt.Println("  run length   runs")
	for i, c := range hist {
		if c == 0 {
			continue
		}
		bar := strings.Repeat("#", int(1+c*31/max))
		fmt.Printf("  %9s %6d  %s\n", fmt.Sprintf("<=%d", 1<<i), c, bar)
	}
}

// mapSlots is the width of the ring line in runMap: each character is
// one keyspace slot colored by its owning node.
const mapSlots = 64

// runMap draws an ASCII map of the ring: one line of keyspace slots
// lettered by owning node, then a legend with each node's arc share,
// load heat bar, and role breakdown from its census report.
func runMap(ctx context.Context, client *d2.Client, jsonOut bool) error {
	nodes, cluster, err := client.ClusterCensus(ctx)
	if err != nil {
		return err
	}
	if len(nodes) == 0 {
		return fmt.Errorf("no reachable nodes")
	}
	if jsonOut {
		return printJSON(cluster)
	}

	// Order nodes by ring position and assign each a letter. Arc share
	// comes from 64-bit key prefixes: (self - pred) mod 2^64 is exact
	// enough for display at any realistic ring size.
	sort.Slice(nodes, func(i, j int) bool {
		return nodes[i].Self.ID.Less(nodes[j].Self.ID)
	})
	letters := "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
	letter := func(i int) byte {
		if i < len(letters) {
			return letters[i]
		}
		return '*'
	}

	// Each slot's center position belongs to the first node at or after
	// it in ring order (arcs are (pred, self], so ownership is the
	// ceiling in the sorted ID list, wrapping past the top).
	ids := make([]uint64, len(nodes))
	for i, n := range nodes {
		ids[i] = binary.BigEndian.Uint64(n.Self.ID[:8])
	}
	line := make([]byte, mapSlots)
	for s := 0; s < mapSlots; s++ {
		p := uint64(s) * (^uint64(0) / mapSlots)
		owner := 0
		found := false
		for i, id := range ids {
			if id >= p {
				owner, found = i, true
				break
			}
		}
		if !found {
			owner = 0 // wrapped past the highest ID: the lowest node owns it
		}
		line[s] = letter(owner)
	}
	fmt.Printf("ring map — %d nodes, %d keyspace slots, state %s\n\n", len(nodes), mapSlots, strings.ToUpper(cluster.State))
	fmt.Printf("|%s|\n\n", line)

	var maxPrimary int64 = 1
	for _, n := range nodes {
		if n.Report != nil && n.Report.PrimaryBytes > maxPrimary {
			maxPrimary = n.Report.PrimaryBytes
		}
	}
	fmt.Printf("%-3s %-22s %-10s %6s %-12s %10s %10s %10s %6s\n",
		"KEY", "ADDR", "ID", "ARC%", "LOAD", "PRIMARY", "REPLICA", "POINTER", "FRAG")
	for i, n := range nodes {
		pred := ids[(i+len(ids)-1)%len(ids)]
		arc := float64(ids[i]-pred) / float64(^uint64(0)) // uint64 wrap = circular distance
		if len(ids) == 1 {
			arc = 1
		}
		load, frag := "-", "-"
		primary, replica, pointer := "-", "-", "-"
		if r := n.Report; r != nil {
			heat := int(r.PrimaryBytes * 10 / maxPrimary)
			load = strings.Repeat("#", heat) + strings.Repeat(".", 10-heat)
			primary, replica, pointer = fmtBytes(r.PrimaryBytes), fmtBytes(r.ReplicaBytes), fmtBytes(r.PointerBytes)
			frag = fmt.Sprintf("%.2f", r.FragRatio())
		}
		fmt.Printf("%-3c %-22s %-10s %5.1f%% %-12s %10s %10s %10s %6s\n",
			letter(i), n.Self.Addr, n.Self.ID.Short(), 100*arc, load,
			primary, replica, pointer, frag)
	}
	return nil
}

// printJSON writes v to stdout, indented, for -o json consumers.
func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
