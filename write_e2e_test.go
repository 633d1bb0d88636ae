package d2_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	d2 "github.com/defragdht/d2"
	"github.com/defragdht/d2/internal/obs"
)

// TestRewriteSurvivesRemoveDelay is the live form of the write-back
// window's disjointness: a rewrite keeps its unchanged blocks under their
// old keys, and those keys must outlive the delayed removal the rewrite
// queues for the blocks it did replace — at the writer (no removal sent
// for a key it stores again) and on the nodes (a put clears a pending
// removal). A fresh read-only handle reads everything back after
// RemoveDelay has passed twice over.
func TestRewriteSurvivesRemoveDelay(t *testing.T) {
	ctx := context.Background()
	opts := fastOptions() // RemoveDelay 50 ms
	cluster, err := d2.NewCluster(ctx, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client, err := cluster.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	pub, priv, err := d2.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	vol, err := client.CreateVolume(ctx, "rewrite", priv, d2.VolumeOptions{})
	if err != nil {
		t.Fatal(err)
	}

	const block = 8192
	a, b, c := bytes.Repeat([]byte("a"), block), bytes.Repeat([]byte("b"), block), bytes.Repeat([]byte("c"), block)
	ab, ac := append(append([]byte{}, a...), b...), append(append([]byte{}, a...), c...)

	// A file rewritten with its first block unchanged.
	if err := vol.WriteFile(ctx, "/f", ab); err != nil {
		t.Fatal(err)
	}
	// A directory whose entry list lives in content blocks (> 4 KB):
	// adding an entry rewrites the last block and keeps the first.
	if err := vol.Mkdir(ctx, "/d"); err != nil {
		t.Fatal(err)
	}
	const entries = 300
	for i := 0; i < entries; i++ {
		if err := vol.WriteFile(ctx, fmt.Sprintf("/d/file-%04d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := vol.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if err := vol.WriteFile(ctx, "/f", ac); err != nil {
		t.Fatal(err)
	}
	if err := vol.WriteFile(ctx, fmt.Sprintf("/d/file-%04d", entries), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := vol.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	// Put the same content once more, now that the nodes hold removal
	// timers for the first generation's replaced blocks: writing A‖B again
	// re-stores B's old key while its removal is pending.
	if err := vol.WriteFile(ctx, "/f", ab); err != nil {
		t.Fatal(err)
	}
	if err := vol.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	time.Sleep(4 * opts.RemoveDelay)

	reader, err := cluster.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	ro, err := reader.OpenVolume(ctx, "rewrite", pub, nil, d2.VolumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ro.ReadFile(ctx, "/f")
	if err != nil {
		t.Fatalf("rewritten file: %v", err)
	}
	if !bytes.Equal(got, ab) {
		t.Fatalf("rewritten file: %d bytes, content differs", len(got))
	}
	infos, err := ro.ReadDir(ctx, "/d")
	if err != nil {
		t.Fatalf("grown directory: %v", err)
	}
	if len(infos) != entries+1 {
		t.Fatalf("grown directory lists %d entries, want %d", len(infos), entries+1)
	}
}

// TestWritePathGroupsCommits drives the untraced write path end to end —
// d2.StartNode rings on the disk engine with fsync "always", a
// d2.ConnectTCP client, saves of eight files and a stream write — and
// reads the layer counters that must explain its speed from the nodes'
// own registries: a save is a handful of MultiPuts, and an fsync covers a
// batch, not a block.
func TestWritePathGroupsCommits(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a durable TCP ring")
	}
	ctx := context.Background()
	var nodes []*d2.Node
	for i := 0; i < 3; i++ {
		seed := ""
		if i > 0 {
			seed = nodes[0].Addr()
		}
		nd, err := d2.StartNode(ctx, "127.0.0.1:0", seed, d2.NodeOptions{
			Replicas:          3,
			Seed:              uint64(i + 1),
			StabilizeInterval: 50 * time.Millisecond,
			DataDir:           t.TempDir(),
			Fsync:             "always",
		})
		if err != nil {
			t.Fatal(err)
		}
		defer nd.Close()
		nodes = append(nodes, nd)
	}
	client, err := d2.ConnectTCP([]string{nodes[0].Addr()}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	waitRing(t, ctx, client, len(nodes))

	_, priv, err := d2.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	vol, err := client.CreateVolume(ctx, "saves", priv, d2.VolumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const saves, files = 6, 8
	for s := 0; s < saves; s++ {
		dir := fmt.Sprintf("/s%02d", s)
		if err := vol.Mkdir(ctx, dir); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < files; f++ {
			if err := vol.WriteFile(ctx, fmt.Sprintf("%s/f%d", dir, f), bytes.Repeat([]byte{byte(s), byte(f)}, 10_000)); err != nil {
				t.Fatal(err)
			}
		}
		if err := vol.Sync(ctx); err != nil {
			t.Fatal(err)
		}
	}
	w, err := vol.WriteStream(ctx, "/bulk.bin")
	if err != nil {
		t.Fatal(err)
	}
	bulk := bytes.Repeat([]byte("0123456789abcdef"), 64<<10) // 1 MB
	if _, err := w.Write(bulk); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := vol.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	got, err := vol.ReadFile(ctx, "/bulk.bin")
	if err != nil || !bytes.Equal(got, bulk) {
		t.Fatalf("stream read-back: %v (%d bytes)", err, len(got))
	}

	stats, err := client.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var merged obs.Snapshot
	for _, s := range stats {
		merged = obs.Merge(merged, s.Snapshot)
	}
	appends := merged.Counters["d2_store_wal_appends_total"]
	fsyncs := merged.Counters["d2_store_wal_fsyncs_total"]
	multiPuts := merged.Counters[`d2_rpc_server_total{rpc="multi_put"}`]
	t.Logf("wal records %d, fsyncs %d (%.1f records per fsync), multi_put served %d, forward errors %d",
		appends, fsyncs, float64(appends)/float64(fsyncs), multiPuts,
		merged.Counters["d2_node_replica_forward_errors_total"])
	if fsyncs == 0 || float64(appends)/float64(fsyncs) < 4 {
		t.Errorf("group commit covers %.1f records per fsync (%d records, %d fsyncs); want at least 4",
			float64(appends)/float64(fsyncs), appends, fsyncs)
	}
	if h := merged.Histograms["d2_store_group_commit_records"]; h.Count() == 0 || h.Mean() < 4 {
		t.Errorf("d2_store_group_commit_records: %d fsyncs, mean %.1f; want a mean of at least 4", h.Count(), h.Mean())
	}
	if h := merged.Histograms["d2_node_multiput_blocks"]; h.Count() != multiPuts || h.Mean() < 4 {
		t.Errorf("d2_node_multiput_blocks: %d batches (served %d), mean %.1f blocks", h.Count(), multiPuts, h.Mean())
	}
	if n := merged.Counters["d2_node_replica_forward_errors_total"]; n != 0 {
		t.Errorf("%d replica forwards failed on a healthy ring", n)
	}
}
