package d2_test

// BenchmarkStreamRead measures the streaming read path end to end over
// real TCP sockets: a 9-node ring serves a 64 MB file to three readers —
// the windowed-readahead stream, the batched whole-file read it must not
// fall behind, and a single-segment read whose latency bounds the
// stream's time to first byte.

import (
	"context"
	"io"
	"math/rand/v2"
	"sort"
	"testing"
	"time"

	d2 "github.com/defragdht/d2"
)

const oneSegmentBytes = 128 << 10 // SegmentBlocks * BlockSize

// streamBenchMB is the benchmark file size.
const streamBenchMB = 64

func BenchmarkStreamRead(b *testing.B) {
	ctx := context.Background()
	opts := d2.NodeOptions{
		Replicas:          3,
		StabilizeInterval: 20 * time.Millisecond,
		// Quiet repair: the bench kills no nodes, and a busy repair
		// sweep over 3 replicas of the payload is pure timing noise.
		RepairInterval: 10 * time.Second,
	}
	var nodes []*d2.Node
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	for i := 0; i < 9; i++ {
		seed := ""
		if i > 0 {
			seed = nodes[0].Addr()
		}
		n, err := d2.StartNode(ctx, "127.0.0.1:0", seed, opts)
		if err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	time.Sleep(500 * time.Millisecond) // let the ring stabilize

	client, err := d2.ConnectTCP([]string{nodes[0].Addr(), nodes[8].Addr()}, 3)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	_, priv, err := d2.GenerateKey()
	if err != nil {
		b.Fatal(err)
	}
	// A one-byte read-cache cap forces every mode onto the network, so
	// the comparison is transfer paths, not cache hits.
	vol, err := client.CreateVolume(ctx, "streambench", priv, d2.VolumeOptions{
		ReadCacheBytes: 1,
	})
	if err != nil {
		b.Fatal(err)
	}

	sizeBytes := int64(streamBenchMB) << 20
	payload := make([]byte, sizeBytes)
	rng := rand.New(rand.NewPCG(3, 5))
	for i := range payload {
		payload[i] = byte(rng.Uint64())
	}
	w, err := vol.WriteStream(ctx, "/big.bin")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := w.Write(payload); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	if err := vol.WriteFile(ctx, "/seg.bin", payload[:oneSegmentBytes]); err != nil {
		b.Fatal(err)
	}
	if err := vol.Sync(ctx); err != nil {
		b.Fatal(err)
	}

	// Warm pass: one open-and-taste plus one segment read, so the timed
	// modes measure the transfer paths with warm lookup caches, not the
	// first-contact metadata walk.
	{
		r, err := vol.ReadStream(ctx, "/big.bin")
		if err != nil {
			b.Fatal(err)
		}
		one := make([]byte, 1)
		if _, err := r.Read(one); err != nil {
			b.Fatal(err)
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
		if _, err := vol.ReadFile(ctx, "/seg.bin"); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("mode=stream", func(b *testing.B) {
		b.SetBytes(sizeBytes)
		var sustainedMBps float64
		for i := 0; i < b.N; i++ {
			r, err := vol.ReadStream(ctx, "/big.bin")
			if err != nil {
				b.Fatal(err)
			}
			n, err := io.Copy(io.Discard, r)
			if cerr := r.Close(); err == nil {
				err = cerr
			}
			if err != nil || n != sizeBytes {
				b.Fatalf("stream read = (%d, %v)", n, err)
			}
			sustainedMBps = r.(d2.StatStream).Stats().MBps()
		}
		b.StopTimer()
		// TTFB is its own experiment: the median over several
		// open→first-byte→close cycles, like mode=segment's median.
		var ttfbs []time.Duration
		one := make([]byte, 1)
		for j := 0; j < 9; j++ {
			r, err := vol.ReadStream(ctx, "/big.bin")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := r.Read(one); err != nil {
				b.Fatal(err)
			}
			if err := r.Close(); err != nil {
				b.Fatal(err)
			}
			ttfbs = append(ttfbs, r.(d2.StatStream).Stats().TTFB)
		}
		sort.Slice(ttfbs, func(i, j int) bool { return ttfbs[i] < ttfbs[j] })
		b.StartTimer()
		b.ReportMetric(float64(ttfbs[len(ttfbs)/2])/float64(time.Millisecond), "ttfb-ms")
		b.ReportMetric(sustainedMBps, "stream-MB/s")
	})

	b.Run("mode=wholefile", func(b *testing.B) {
		b.SetBytes(sizeBytes)
		var elapsed time.Duration
		for i := 0; i < b.N; i++ {
			start := time.Now()
			data, err := vol.ReadFile(ctx, "/big.bin")
			elapsed = time.Since(start)
			if err != nil || int64(len(data)) != sizeBytes {
				b.Fatalf("whole-file read = (%d, %v)", len(data), err)
			}
		}
		b.ReportMetric(streamBenchMB/elapsed.Seconds(), "wholefile-MB/s")
	})

	b.Run("mode=segment", func(b *testing.B) {
		// Median of a fixed sample set per iteration: a single read's
		// latency is too noisy to serve as the TTFB acceptance bound.
		var samples []time.Duration
		for i := 0; i < b.N; i++ {
			samples = samples[:0]
			for j := 0; j < 16; j++ {
				start := time.Now()
				data, err := vol.ReadFile(ctx, "/seg.bin")
				samples = append(samples, time.Since(start))
				if err != nil || len(data) != oneSegmentBytes {
					b.Fatalf("segment read = (%d, %v)", len(data), err)
				}
			}
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		b.ReportMetric(float64(samples[len(samples)/2])/float64(time.Millisecond), "segment-ms")
	})
}
