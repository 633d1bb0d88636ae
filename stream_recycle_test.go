package d2_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	d2 "github.com/defragdht/d2"
)

// startDurableRing boots a 3-node TCP ring on the disk engine, each node
// with opts, its own seed and its own data directory, and returns a
// client once the ring has all three members. Everything closes when tb
// ends.
func startDurableRing(tb testing.TB, opts d2.NodeOptions) *d2.Client {
	tb.Helper()
	ctx := context.Background()
	var nodes []*d2.Node
	for i := 0; i < 3; i++ {
		seed := ""
		if i > 0 {
			seed = nodes[0].Addr()
		}
		opts.Replicas, opts.Seed, opts.DataDir = 3, uint64(i+1), tb.TempDir()
		nd, err := d2.StartNode(ctx, "127.0.0.1:0", seed, opts)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { nd.Close() })
		nodes = append(nodes, nd)
	}
	client, err := d2.ConnectTCP([]string{nodes[0].Addr()}, 3)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { client.Close() })
	waitRing(tb, ctx, client, len(nodes))
	return client
}

// TestStreamRecyclingSparesRetainedReads: segment reads recycle their
// response frames, and every other read path keeps borrowing its frame.
// One client on a durable 3-node TCP ring runs at least 1 000 ReadSegment
// segments while, on the same connections, it keeps what GetMany and Get
// return and fills a volume's read cache with ReadFiles. A frame released
// while a kept slice still pointed into it would be refilled by a later
// segment: afterwards every kept slice and every cached block must still
// hold the bytes that were written.
func TestStreamRecyclingSparesRetainedReads(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a durable TCP ring")
	}
	const (
		segments  = 1000
		segBlocks = 16
		blockSize = 4 << 10
		files     = 8
		// keepRounds bounds what the test holds on to (~7 MB).
		keepRounds = 100
	)
	ctx := context.Background()
	client := startDurableRing(t, d2.NodeOptions{StabilizeInterval: 50 * time.Millisecond, Fsync: "never"})

	// Two runs of blocks with distinct payloads: one read by segments, one
	// by the paths that keep what they get.
	block := func(run byte, i int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("%c%05d.", 'a'+run, i)), blockSize/7)
	}
	put := func(run byte) []d2.Key {
		ks := make([]d2.Key, 4*segBlocks)
		data := make([][]byte, len(ks))
		for i := range ks {
			ks[i], data[i] = d2.Key{0x30 + run}.WithBlock(uint64(i+1)), block(run, i)
		}
		if err := client.PutMany(ctx, ks, data); err != nil {
			t.Fatal(err)
		}
		return ks
	}
	segKeys, keptKeys := put(0), put(1)

	pub, priv, err := d2.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	vol, err := client.CreateVolume(ctx, "recycle", priv, d2.VolumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	content := func(f int) []byte { return bytes.Repeat([]byte{byte(f + 1)}, 3*blockSize+f) }
	path := func(f int) string { return fmt.Sprintf("/f%d", f) }
	for f := 0; f < files; f++ {
		if err := vol.WriteFile(ctx, path(f), content(f)); err != nil {
			t.Fatal(err)
		}
	}
	if err := vol.Close(ctx); err != nil {
		t.Fatal(err)
	}
	reader, err := client.OpenVolume(ctx, "recycle", pub, nil, d2.VolumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close(ctx)

	type kept struct {
		k    d2.Key
		i    int
		data []byte
	}
	var (
		wg      sync.WaitGroup
		done    = make(chan struct{})
		segErr  error
		keepErr error
		keep    []kept
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(done)
		for s := 0; s < segments && segErr == nil; s++ {
			lo := s % 4 * segBlocks
			n := 0
			segErr = client.ReadSegment(ctx, segKeys[lo:lo+segBlocks], func(k d2.Key, d []byte) {
				i := int(k.BlockNum()) - 1
				if !bytes.Equal(d, block(0, i)) && segErr == nil {
					segErr = fmt.Errorf("segment %d: block %d differs", s, i)
				}
				n++
			})
			if segErr == nil && n != segBlocks {
				segErr = fmt.Errorf("segment %d: %d of %d blocks", s, n, segBlocks)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for round := 0; keepErr == nil; round++ {
			select {
			case <-done:
				return
			default:
			}
			lo := round % 4 * segBlocks
			got, err := client.GetMany(ctx, keptKeys[lo:lo+segBlocks])
			if err != nil {
				keepErr = err
				return
			}
			k := keptKeys[round%len(keptKeys)]
			d, err := client.Get(ctx, k)
			if err != nil {
				keepErr = err
				return
			}
			if round >= keepRounds {
				continue // reads go on, sharing connections with the segments
			}
			for j, k := range keptKeys[lo : lo+segBlocks] {
				keep = append(keep, kept{k, lo + j, got[k]})
			}
			keep = append(keep, kept{k, round % len(keptKeys), d})
			if round < files {
				if _, err := reader.ReadFile(ctx, path(round)); err != nil {
					keepErr = err
					return
				}
			}
		}
	}()
	wg.Wait()
	if segErr != nil {
		t.Fatal(segErr)
	}
	if keepErr != nil {
		t.Fatal(keepErr)
	}
	for _, kp := range keep {
		if !bytes.Equal(kp.data, block(1, kp.i)) {
			t.Fatalf("a kept read of block %d changed after segments recycled their frames", kp.i)
		}
	}
	// The read cache holds the blocks the first ReadFiles fetched; a read
	// from it checks each block against its hash.
	for f := 0; f < files; f++ {
		got, err := reader.ReadFile(ctx, path(f))
		if err != nil || !bytes.Equal(got, content(f)) {
			t.Fatalf("cached read of %s: %v", path(f), err)
		}
	}
	t.Logf("%d segments, %d kept reads", segments, len(keep))
}
