package d2_test

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	d2 "github.com/defragdht/d2"
	"github.com/defragdht/d2/internal/keys"
)

// censusOwner returns which of the ring IDs owns key k: the first ID at
// or after k, wrapping to the lowest ID past the top of the keyspace.
func censusOwner(ids []keys.Key, k keys.Key) keys.Key {
	best, found := keys.Key{}, false
	for _, id := range ids {
		if k.Compare(id) <= 0 && (!found || id.Less(best)) {
			best, found = id, true
		}
	}
	if found {
		return best
	}
	low := ids[0]
	for _, id := range ids[1:] {
		if id.Less(low) {
			low = id
		}
	}
	return low
}

// censusFileKey builds a block key with the given 52-byte file prefix.
func censusFileKey(prefix keys.Key, block uint64) keys.Key {
	var k keys.Key
	copy(k[:52], prefix[:52])
	binary.BigEndian.PutUint64(k[52:60], block)
	return k
}

// TestCensusLocalityImprovesAfterBalance is the live §5 experiment on a
// 3-node TCP ring: a file whose consecutive blocks straddle node B's
// ring position censuses as two runs (plus a whole head file — three
// runs, one file). A hotspot elsewhere then triggers B's Karger–Ruhl
// balance move; B leaves, its old arc merges into its successor's, and
// the cluster census must show the file healing to a single run — the
// locality score improves because of a balance round, measured live
// rather than in the §5 simulator.
func TestCensusLocalityImprovesAfterBalance(t *testing.T) {
	ctx := context.Background()
	opts := fastOptions()
	opts.RepairInterval = 50 * time.Millisecond
	opts.HistoryInterval = 50 * time.Millisecond
	opts.PointerStabilization = 150 * time.Millisecond

	// Only the third node balances, so exactly one node (B) can ever
	// move and the straddled boundary we craft below is guaranteed to be
	// the one that heals.
	var nodes []*d2.Node
	for i := 0; i < 3; i++ {
		o := opts
		if i == 2 {
			o.BalanceInterval = 300 * time.Millisecond
		}
		seed := ""
		if i > 0 {
			seed = nodes[0].Addr()
		}
		n, err := d2.StartNode(ctx, "127.0.0.1:0", seed, o)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes = append(nodes, n)
	}
	time.Sleep(500 * time.Millisecond)

	client, err := d2.ConnectTCP([]string{nodes[0].Addr(), nodes[1].Addr()}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ids := []keys.Key{nodes[0].ID(), nodes[1].ID(), nodes[2].ID()}
	bID := nodes[2].ID()
	volLabel := bID.Short() // the witness volume below reuses B's first 20 bytes

	// The witness file: 64 consecutive blocks numbered around B's own
	// block field, sharing B's first 52 bytes — so its key interval
	// straddles B exactly, splitting the file between B and B's
	// successor. A small whole head file (block 0) in the same volume
	// supplies the census file count.
	m := binary.BigEndian.Uint64(bID[52:60])
	if m < 64 || m > ^uint64(0)-64 {
		t.Fatalf("node ID block field %d too close to the edge for a straddle", m)
	}
	payload := make([]byte, 256)
	for i := uint64(0); i < 64; i++ {
		if err := client.Put(ctx, censusFileKey(bID, m-31+i), payload); err != nil {
			t.Fatal(err)
		}
	}
	var headPrefix keys.Key
	copy(headPrefix[:20], bID[:20])
	for b := uint64(0); b < 4; b++ {
		if err := client.Put(ctx, censusFileKey(headPrefix, b), payload); err != nil {
			t.Fatal(err)
		}
	}

	// The straddle must be visible before the balancer runs: volume =
	// 68 blocks, 1 file (the head), 3 runs (head + the two body halves).
	runsBefore := waitVolumeRuns(t, ctx, client, volLabel, 68, 3, 10*time.Second,
		"initial straddled layout")
	t.Logf("before balance: volume %s runs=%d (straddles node %s)", volLabel, runsBefore, bID.Short())

	// The hotspot: one 4 MiB file owned by a non-balancing node. B's
	// probe finds it (4 MiB against B's ~17 KiB clears the t=4
	// threshold), B rejoins at the hotspot's median, and B's old
	// boundary — the one splitting the witness file — disappears.
	var hot keys.Key
	for i := 0; ; i++ {
		hot = keys.HashString(fmt.Sprintf("census-hot-%d", i))
		if !censusOwner(ids, hot).Equal(bID) {
			break
		}
	}
	hotPayload := make([]byte, 16<<10)
	for b := uint64(0); b < 256; b++ {
		if err := client.Put(ctx, censusFileKey(hot, b), hotPayload); err != nil {
			t.Fatal(err)
		}
	}

	runsAfter := waitVolumeRuns(t, ctx, client, volLabel, 68, 2, 45*time.Second,
		"healed layout after the balance move")
	if runsAfter >= runsBefore {
		t.Fatalf("locality did not improve: %d runs before, %d after", runsBefore, runsAfter)
	}
	t.Logf("after balance: volume %s runs=%d", volLabel, runsAfter)

	// The move must be a real balance move, not ring churn.
	stats, err := client.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var moves uint64
	for _, n := range stats {
		moves += n.Snapshot.Counters["d2_node_balance_moves_total"]
	}
	if moves == 0 {
		t.Fatal("census healed but no balance move was recorded")
	}

	// The mover's event log must carry the census-delta instrumentation
	// for the move, and its admin plane must serve the census document.
	srv := httptest.NewServer(nodes[2].AdminHandler())
	defer srv.Close()
	events := adminGet(t, srv, "/eventz")
	if !strings.Contains(events, "census.delta") || !strings.Contains(events, "balance.move") {
		t.Fatalf("mover /eventz lacks census.delta for the balance move:\n%s", events)
	}
	var censusDoc struct {
		PrimaryBlocks int64 `json:"primary_blocks"`
		Sweeps        int64 `json:"sweeps"`
	}
	if err := json.Unmarshal([]byte(adminGet(t, srv, "/censusz")), &censusDoc); err != nil {
		t.Fatalf("/censusz is not valid JSON: %v", err)
	}
	if censusDoc.Sweeps == 0 {
		t.Fatal("/censusz reports zero sweeps on a live node")
	}
}

// waitVolumeRuns polls the cluster census until the named volume shows
// exactly wantBlocks blocks in wantRuns runs, and returns the run count.
func waitVolumeRuns(t *testing.T, ctx context.Context, client *d2.Client, vol string, wantBlocks, wantRuns int64, timeout time.Duration, what string) int64 {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last string
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		_, cluster, err := client.ClusterCensus(ctx)
		if err != nil {
			last = err.Error()
			continue
		}
		for _, v := range cluster.Volumes {
			if v.Volume != vol {
				continue
			}
			last = fmt.Sprintf("blocks=%d files=%d runs=%d", v.Blocks, v.Files, v.Runs)
			if v.Blocks == wantBlocks && v.Runs == wantRuns {
				return v.Runs
			}
		}
	}
	t.Fatalf("%s never appeared: want volume %s with %d blocks in %d runs, last saw: %s",
		what, vol, wantBlocks, wantRuns, last)
	return 0
}

// adminGet fetches one admin-plane path and returns the body.
func adminGet(t *testing.T, srv *httptest.Server, path string) string {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	return string(body)
}
