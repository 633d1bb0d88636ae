package node

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/transport"
)

func putSegmentKeys(t *testing.T, c *Client, n int) ([]keys.Key, [][]byte) {
	t.Helper()
	ctx := context.Background()
	ks := make([]keys.Key, n)
	vals := make([][]byte, n)
	for i := range ks {
		ks[i] = keys.HashString(fmt.Sprintf("seg-%03d", i))
		vals[i] = []byte(fmt.Sprintf("segment block %03d", i))
		if err := c.Put(ctx, ks[i], vals[i]); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	return ks, vals
}

func TestGetSegmentStreamComplete(t *testing.T) {
	net := transport.NewMemNetwork(0)
	nodes := startRing(t, net, 5, nil)
	defer closeAll(t, nodes)
	c := newClient(t, net, nodes)
	defer c.Close()

	ks, vals := putSegmentKeys(t, c, 32)
	got, err := c.GetSegment(context.Background(), ks)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ks) {
		t.Fatalf("GetSegment returned %d of %d keys", len(got), len(ks))
	}
	for i, k := range ks {
		if !bytes.Equal(got[k], vals[i]) {
			t.Fatalf("key %d payload mismatch", i)
		}
	}
}

func TestGetSegmentStreamRetriesMissing(t *testing.T) {
	net := transport.NewMemNetwork(0)
	nodes := startRing(t, net, 4, nil)
	defer closeAll(t, nodes)
	c := newClient(t, net, nodes)
	defer c.Close()

	ks, _ := putSegmentKeys(t, c, 8)
	// Two keys that were never stored: the segment path must burn its
	// retry budget on them, then return the partial result rather than
	// failing the whole segment.
	req := append(append([]keys.Key{}, ks...),
		keys.HashString("segment-hole-a"), keys.HashString("segment-hole-b"))
	start := time.Now()
	got, err := c.GetSegment(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ks) {
		t.Fatalf("GetSegment returned %d keys, want the %d stored", len(got), len(ks))
	}
	if elapsed := time.Since(start); elapsed < segmentRetryBackoff/2 {
		t.Errorf("segment with holes returned in %v; retry rounds did not run", elapsed)
	}
	if c.segRetries.Value() == 0 {
		t.Error("d2_client_segment_retries_total not incremented for missing keys")
	}
}

func TestGetSegmentStreamSurvivesNodeKill(t *testing.T) {
	net := transport.NewMemNetwork(0)
	nodes := startRing(t, net, 6, nil)
	defer func() {
		for _, n := range nodes {
			if n != nil {
				n.Close()
			}
		}
	}()
	c := newClient(t, net, nodes)
	defer c.Close()

	ks, vals := putSegmentKeys(t, c, 48)
	// Let the repair loop finish replicating before the failure.
	time.Sleep(300 * time.Millisecond)
	// Warm the client's range cache so the kill invalidates real state.
	if _, err := c.GetSegment(context.Background(), ks); err != nil {
		t.Fatal(err)
	}
	if err := nodes[3].Close(); err != nil {
		t.Fatal(err)
	}
	nodes[3] = nil
	// Immediately after the kill — before the ring restabilizes — the
	// segment must still assemble from replicas via the retry path.
	got, err := c.GetSegment(context.Background(), ks)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ks) {
		t.Fatalf("post-kill GetSegment returned %d of %d keys", len(got), len(ks))
	}
	for i, k := range ks {
		if !bytes.Equal(got[k], vals[i]) {
			t.Fatalf("key %d payload mismatch after node kill", i)
		}
	}
}

// TestReadSegmentSinksEveryBlockOnce: ReadSegment hands each stored key of
// a batch spread over every owner to its sink exactly once, one call at a
// time, with the bytes GetSegment returns; a hole is never sunk, and each
// call counts as one segment. Over TCP the sink copies, because the
// client reuses the response frames.
func TestReadSegmentSinksEveryBlockOnce(t *testing.T) {
	for _, rn := range ringNets() {
		t.Run(rn.name, func(t *testing.T) {
			nodes := startSpacedRing(t, rn, 5, nil)
			defer closeAll(t, nodes)
			c := clientOn(t, rn, nodes)
			defer c.Close()
			ctx := context.Background()
			ks, data := spreadBatch("read-segment")
			if err := c.PutMany(ctx, ks, data); err != nil {
				t.Fatal(err)
			}
			want, err := c.GetSegment(ctx, ks)
			if err != nil || len(want) != len(ks) {
				t.Fatalf("GetSegment: %d of %d blocks, %v", len(want), len(ks), err)
			}
			hole := keys.HashString("read-segment-hole")
			segments := c.segments.Value()
			got := map[keys.Key][]byte{}
			var inSink atomic.Int32
			err = c.ReadSegment(ctx, append(ks, hole), func(k keys.Key, d []byte) {
				if inSink.Add(1) != 1 {
					t.Error("sink called concurrently")
				}
				defer inSink.Add(-1)
				if _, dup := got[k]; dup {
					t.Errorf("key %s sunk twice", k.Short())
				}
				got[k] = bytes.Clone(d)
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := got[hole]; ok || len(got) != len(ks) {
				t.Fatalf("ReadSegment sank %d keys (hole %v), want the %d stored", len(got), ok, len(ks))
			}
			for k, d := range want {
				if !bytes.Equal(got[k], d) {
					t.Fatalf("key %s: ReadSegment %q, GetSegment %q", k.Short(), got[k], d)
				}
			}
			if n := c.segments.Value() - segments; n != 1 {
				t.Fatalf("one ReadSegment counted %d segments", n)
			}
		})
	}
}
