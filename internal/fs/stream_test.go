package fs

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/defragdht/d2/internal/keys"
)

// batchMemService wraps memService with a batched read path plus fault
// and latency injection for pipeline tests.
type batchMemService struct {
	*memService
	mu        sync.Mutex
	delay     time.Duration // per-GetMany latency
	dropEvery int           // omit every n-th requested key (batch miss)
	gate      chan struct{} // when set, GetMany blocks until closed
	batchGets int
	served    int // blocks returned via GetMany
	// contentGets counts single-key Gets of content blocks.
	contentGets int
	// segInflight counts GetSegment calls running; segPeak is its high
	// water mark.
	segInflight, segPeak int
}

func newBatchMemService() *batchMemService {
	return &batchMemService{memService: newMemService()}
}

func (s *batchMemService) GetMany(ctx context.Context, ks []keys.Key) (map[keys.Key][]byte, error) {
	s.mu.Lock()
	s.batchGets++
	delay, drop, gate := s.delay, s.dropEvery, s.gate
	s.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	out := make(map[keys.Key][]byte, len(ks))
	for i, k := range ks {
		if drop > 0 && (i+1)%drop == 0 {
			continue
		}
		data, err := s.memService.Get(ctx, k)
		if err != nil {
			continue // GetMany semantics: absent keys are omitted
		}
		out[k] = data
	}
	s.mu.Lock()
	s.served += len(out)
	s.mu.Unlock()
	return out, nil
}

func (s *batchMemService) GetSegment(ctx context.Context, ks []keys.Key) (map[keys.Key][]byte, error) {
	s.mu.Lock()
	s.segInflight++
	s.segPeak = max(s.segPeak, s.segInflight)
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.segInflight--
		s.mu.Unlock()
	}()
	return s.GetMany(ctx, ks)
}

func (s *batchMemService) Get(ctx context.Context, k keys.Key) ([]byte, error) {
	if k.BlockNum() != 0 {
		s.mu.Lock()
		s.contentGets++
		s.mu.Unlock()
	}
	return s.memService.Get(ctx, k)
}

func (s *batchMemService) servedBlocks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.served
}

func newStreamVolume(t *testing.T) (*Volume, *batchMemService) {
	t.Helper()
	svc := newBatchMemService()
	v, err := Create(context.Background(), svc, "streamvol", testKey, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return v, svc
}

func randBytes(n int) []byte {
	rng := rand.New(rand.NewPCG(7, 9))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint64())
	}
	return b
}

func TestStreamRoundTripSizes(t *testing.T) {
	v, _ := newStreamVolume(t)
	ctx := context.Background()
	sizes := []int{0, 100, InlineMax, InlineMax + 1, BlockSize,
		3*BlockSize + 1234, SegmentBytes, 2*SegmentBytes + BlockSize/2}
	for _, n := range sizes {
		t.Run(fmt.Sprintf("size=%d", n), func(t *testing.T) {
			path := fmt.Sprintf("/f%d", n)
			want := randBytes(n)
			if err := v.WriteFile(ctx, path, want); err != nil {
				t.Fatal(err)
			}
			r, err := v.ReadStream(ctx, path)
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(r)
			if err != nil {
				t.Fatalf("ReadAll: %v", err)
			}
			if err := r.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("size %d: stream content mismatch (got %d bytes)", n, len(got))
			}
			st := r.(StatStream).Stats()
			if st.Bytes != int64(n) {
				t.Errorf("Stats.Bytes = %d, want %d", st.Bytes, n)
			}
			if n > 0 && st.TTFB <= 0 {
				t.Errorf("Stats.TTFB = %v, want > 0", st.TTFB)
			}
		})
	}
}

// TestStreamContract: every stream, inline or pipelined, keeps the same
// contract: Read after Close fails, Stats may race Read, Elapsed stops at
// EOF, and the bytes counter counts only the bytes a Read delivered.
func TestStreamContract(t *testing.T) {
	v, _ := newStreamVolume(t)
	ctx := context.Background()
	sizes := []int{0, 100, InlineMax, InlineMax + 1, 3 * BlockSize, 40 * SegmentBytes}
	for _, n := range sizes {
		t.Run(fmt.Sprintf("size=%d", n), func(t *testing.T) {
			path := fmt.Sprintf("/contract%d", n)
			if err := v.WriteFile(ctx, path, randBytes(n)); err != nil {
				t.Fatal(err)
			}
			r, err := v.ReadStream(ctx, path)
			if err != nil {
				t.Fatal(err)
			}
			before := v.metrics.streamBytes.Value()
			got, err := r.Read(make([]byte, 10))
			if err != nil && err != io.EOF {
				t.Fatalf("partial Read: %v", err)
			}
			if counted := v.metrics.streamBytes.Value() - before; counted != uint64(got) {
				t.Errorf("d2_stream_bytes_total grew by %d for a Read of %d bytes", counted, got)
			}
			if st := r.(StatStream).Stats(); st.Bytes != int64(got) {
				t.Errorf("Stats.Bytes = %d after a Read of %d bytes", st.Bytes, got)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			if m, err := r.Read(make([]byte, 10)); err == nil {
				t.Errorf("Read after Close = (%d, nil), want an error", m)
			}

			r, err = v.ReadStream(ctx, path)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			started, stop := make(chan struct{}), make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				close(started)
				for {
					r.(StatStream).Stats() // at least once, unordered with Read
					select {
					case <-stop:
						return
					default:
						runtime.Gosched()
					}
				}
			}()
			<-started
			read, err := io.Copy(io.Discard, r)
			close(stop)
			wg.Wait()
			if err != nil || read != int64(n) {
				t.Fatalf("read %d bytes, err %v; want %d", read, err, n)
			}
			atEOF := r.(StatStream).Stats().Elapsed
			time.Sleep(2 * time.Millisecond)
			if _, err := r.Read(make([]byte, 1)); err != io.EOF {
				t.Errorf("Read after EOF: %v, want io.EOF", err)
			}
			if later := r.(StatStream).Stats().Elapsed; later != atEOF {
				t.Errorf("Elapsed moved after EOF: %v -> %v", atEOF, later)
			}
		})
	}
}

// TestStreamWindowBoundsInflightFetches: at most streamWindow segment
// fetches run at once, at least two do (the window pipelines), and Close
// mid-stream leaves none running.
func TestStreamWindowBoundsInflightFetches(t *testing.T) {
	v, svc := newStreamVolume(t)
	ctx := context.Background()
	want := randBytes(40 * SegmentBytes)
	if err := v.WriteFile(ctx, "/window.bin", want); err != nil {
		t.Fatal(err)
	}
	if err := v.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	v.dropReadCacheForTest()
	svc.mu.Lock()
	svc.delay = time.Millisecond
	svc.mu.Unlock()
	r, err := v.ReadStream(ctx, "/window.bin")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("stream read: %v (got %d bytes)", err, len(got))
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	svc.mu.Lock()
	peak := svc.segPeak
	svc.mu.Unlock()
	if peak > streamWindow || peak < 2 {
		t.Errorf("peak concurrent GetSegment calls = %d, want 2..%d", peak, streamWindow)
	}

	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		r, err := v.ReadStream(ctx, "/window.bin")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(r, make([]byte, 3*SegmentBytes)); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		svc.mu.Lock()
		running := svc.segInflight
		svc.mu.Unlock()
		if running != 0 {
			t.Fatalf("%d segment fetches still running after Close", running)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after mid-stream closes",
				before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestWriteStreamRoundTrip(t *testing.T) {
	v, svc := newStreamVolume(t)
	ctx := context.Background()
	want := randBytes(5*BlockSize + 777)
	w, err := v.WriteStream(ctx, "/ingest.bin")
	if err != nil {
		t.Fatal(err)
	}
	// Odd chunk sizes exercise the block-boundary accumulation.
	for off := 0; off < len(want); {
		n := 3000
		if off+n > len(want) {
			n = len(want) - off
		}
		if _, err := w.Write(want[off : off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := v.ReadFile(ctx, "/ingest.bin")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("ReadFile after WriteStream: %v (got %d bytes, want %d)", err, len(got), len(want))
	}
	// Overwriting via WriteStream must not leak the old version's blocks.
	if err := v.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	before := svc.numBlocks()
	w, err = v.WriteStream(ctx, "/ingest.bin")
	if err != nil {
		t.Fatal(err)
	}
	want2 := randBytes(2 * BlockSize)
	if _, err := w.Write(want2); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := v.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	got, err = v.ReadFile(ctx, "/ingest.bin")
	if err != nil || !bytes.Equal(got, want2) {
		t.Fatalf("overwrite round trip: %v", err)
	}
	if after := svc.numBlocks(); after > before {
		t.Errorf("blocks grew %d -> %d after smaller overwrite; old versions leaked", before, after)
	}
	// Small streams inline like WriteFile does.
	w, err = v.WriteStream(ctx, "/tiny")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("inline me")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err = v.ReadFile(ctx, "/tiny")
	if err != nil || string(got) != "inline me" {
		t.Fatalf("tiny stream write = (%q, %v)", got, err)
	}
}

func TestStreamReadYourWrites(t *testing.T) {
	// Unsynced content (still in the write-back cache) must stream.
	v, _ := newStreamVolume(t)
	ctx := context.Background()
	want := randBytes(3 * BlockSize)
	if err := v.WriteFile(ctx, "/pending.bin", want); err != nil {
		t.Fatal(err)
	}
	r, err := v.ReadStream(ctx, "/pending.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("stream of pending write: %v", err)
	}
}

// TestBatchReadHoleIsFinal: a block a batch answer leaves out fails the
// read, which names the block; no single-key Get asks for it again.
func TestBatchReadHoleIsFinal(t *testing.T) {
	v, svc := newStreamVolume(t)
	ctx := context.Background()
	if err := v.WriteFile(ctx, "/holey.bin", randBytes(3*SegmentBytes)); err != nil {
		t.Fatal(err)
	}
	if err := v.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	v.dropReadCacheForTest()
	svc.mu.Lock()
	svc.dropEvery = 4 // every batch answer loses its 4th, 8th, ... key
	svc.mu.Unlock()

	// One GetMany for all 48 blocks; its first hole is block 4.
	if _, err := v.ReadFile(ctx, "/holey.bin"); err == nil || !strings.Contains(err.Error(), "fs: block 4: not found") {
		t.Errorf("ReadFile with batch holes: err = %v, want block 4 not found", err)
	}
	v.dropReadCacheForTest() // the ReadFile cached blocks 1-3
	r, err := v.ReadStream(ctx, "/holey.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// The 1-block head, then a 4-block segment (blocks 2-5) missing block 5.
	if _, err := io.ReadAll(r); err == nil || !strings.Contains(err.Error(), "fs: block 5: not found") {
		t.Errorf("stream with batch holes: err = %v, want block 5 not found", err)
	}
	svc.mu.Lock()
	defer svc.mu.Unlock()
	if svc.contentGets != 0 {
		t.Errorf("%d single-key content Gets, want 0", svc.contentGets)
	}
}

// dropReadCacheForTest empties the read cache so a test observes real
// service fetches.
func (v *Volume) dropReadCacheForTest() {
	v.cmu.Lock()
	defer v.cmu.Unlock()
	v.rcache = make(map[keys.Key]cachedBlock)
	v.rcacheBytes = 0
}

func TestStreamBackpressureBoundsPrefetch(t *testing.T) {
	v, svc := newStreamVolume(t)
	ctx := context.Background()
	const nblocks = 40 * SegmentBlocks // 40 segments, far beyond the window
	want := randBytes(nblocks * BlockSize)
	if err := v.WriteFile(ctx, "/big.bin", want); err != nil {
		t.Fatal(err)
	}
	if err := v.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	v.dropReadCacheForTest()
	r, err := v.ReadStream(ctx, "/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Consume one segment, then stall. The pipeline may finish what is
	// in flight but must not run ahead more than the window allows.
	buf := make([]byte, SegmentBytes)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want[:SegmentBytes]) {
		t.Fatal("first segment content mismatch")
	}
	time.Sleep(200 * time.Millisecond) // let any runaway prefetch happen
	fetched := svc.servedBlocks()
	// Hard bound: consumed segment + a full window of prefetch, in blocks.
	limit := (1 + streamWindow) * SegmentBlocks
	if fetched > limit {
		t.Fatalf("prefetch ran ahead: %d blocks fetched with consumer stalled (limit %d)", fetched, limit)
	}
	// And memory for the stall is bounded by the window, not file size.
	time.Sleep(100 * time.Millisecond)
	if again := svc.servedBlocks(); again != fetched {
		t.Fatalf("prefetch still advancing while stalled: %d -> %d", fetched, again)
	}
}

func TestStreamCtxCancelLeaksNothing(t *testing.T) {
	v, svc := newStreamVolume(t)
	ctx := context.Background()
	want := randBytes(20 * SegmentBytes)
	if err := v.WriteFile(ctx, "/cancel.bin", want); err != nil {
		t.Fatal(err)
	}
	if err := v.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	v.dropReadCacheForTest()
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		gate := make(chan struct{})
		svc.mu.Lock()
		svc.gate = gate // fetches hang until released
		svc.mu.Unlock()
		cctx, cancel := context.WithCancel(ctx)
		r, err := v.ReadStream(cctx, "/cancel.bin")
		if err != nil {
			t.Fatal(err)
		}
		readDone := make(chan error, 1)
		go func() {
			buf := make([]byte, 1)
			_, err := r.Read(buf) // blocks: the gate holds every fetch
			readDone <- err
		}()
		time.Sleep(10 * time.Millisecond)
		cancel() // mid-stream cancellation with reads in flight
		if err := <-readDone; !errors.Is(err, context.Canceled) {
			t.Fatalf("blocked Read after cancel = %v, want context.Canceled", err)
		}
		close(gate)
		if err := r.Close(); err != nil {
			t.Fatalf("Close after cancel: %v", err)
		}
		// A second Close is a no-op.
		if err := r.Close(); err != nil {
			t.Fatalf("double Close: %v", err)
		}
		svc.mu.Lock()
		svc.gate = nil
		svc.mu.Unlock()
	}
	// All pipeline goroutines must exit (give the runtime a moment).
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancel/close cycles",
				before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestStreamEarlyCloseCountsWaste(t *testing.T) {
	v, svc := newStreamVolume(t)
	ctx := context.Background()
	want := randBytes(10 * SegmentBytes)
	if err := v.WriteFile(ctx, "/waste.bin", want); err != nil {
		t.Fatal(err)
	}
	if err := v.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	v.dropReadCacheForTest()
	r, err := v.ReadStream(ctx, "/waste.bin")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, BlockSize)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
	// The pipeline starts with the first Read; wait until it has fetched
	// at least one segment past the head so the close abandons real work.
	deadline := time.Now().Add(5 * time.Second)
	for svc.servedBlocks() <= 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Closing one block into a 10-segment file abandons prefetched
	// segments; they must be accounted, not leaked.
	st := r.(StatStream).Stats()
	if st.WastedBlocks == 0 {
		t.Error("early close reported zero wasted blocks; prefetched segments unaccounted")
	}
	// The abandoned work is bounded by one full window of segments.
	if limit := streamWindow * SegmentBlocks; st.WastedBlocks > limit {
		t.Errorf("early close wasted %d blocks, more than one window (%d)", st.WastedBlocks, limit)
	}
	if v.metrics.streamWaste.Value() == 0 {
		t.Error("d2_stream_prefetch_waste_total not incremented")
	}
}

func TestStreamCountsStalls(t *testing.T) {
	v, svc := newStreamVolume(t)
	ctx := context.Background()
	want := randBytes(30 * SegmentBytes)
	if err := v.WriteFile(ctx, "/slow.bin", want); err != nil {
		t.Fatal(err)
	}
	if err := v.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	v.dropReadCacheForTest()
	svc.mu.Lock()
	svc.delay = 5 * time.Millisecond // network slower than the consumer
	svc.mu.Unlock()
	r, err := v.ReadStream(ctx, "/slow.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := io.Copy(io.Discard, r); err != nil {
		t.Fatal(err)
	}
	if st := r.(StatStream).Stats(); st.Stalls == 0 {
		t.Error("fast consumer over slow service reported no stalls")
	}
	if v.metrics.streamStalls.Value() == 0 {
		t.Error("d2_stream_stalls_total not incremented")
	}
}

func TestStreamBypassesReadCache(t *testing.T) {
	v, _ := newStreamVolume(t)
	ctx := context.Background()
	// File bigger than the configured cache cap.
	v.opts.ReadCacheBytes = 4 * BlockSize
	want := randBytes(4 * SegmentBytes)
	if err := v.WriteFile(ctx, "/bypass.bin", want); err != nil {
		t.Fatal(err)
	}
	if err := v.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	v.dropReadCacheForTest()
	r, err := v.ReadStream(ctx, "/bypass.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := io.Copy(io.Discard, r); err != nil {
		t.Fatal(err)
	}
	v.cmu.Lock()
	cached := v.rcacheBytes
	entries := len(v.rcache)
	v.cmu.Unlock()
	// Only the metadata walked on open may be cached; the streamed
	// content blocks must not be.
	if cached > 2*BlockSize {
		t.Errorf("stream populated the read cache: %d bytes in %d entries", cached, entries)
	}
}

func TestReadCacheByteCap(t *testing.T) {
	v, _ := newStreamVolume(t)
	ctx := context.Background()
	v.opts.ReadCacheBytes = 8 * BlockSize
	for i := 0; i < 8; i++ {
		path := fmt.Sprintf("/hot%d", i)
		if err := v.WriteFile(ctx, path, randBytes(2*BlockSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	v.dropReadCacheForTest()
	// Whole-file reads of 32 blocks through an 8-block cap.
	for i := 0; i < 8; i++ {
		if _, err := v.ReadFile(ctx, fmt.Sprintf("/hot%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	v.cmu.Lock()
	cached := v.rcacheBytes
	v.cmu.Unlock()
	if cached > v.opts.ReadCacheBytes {
		t.Errorf("read cache over cap: %d > %d", cached, v.opts.ReadCacheBytes)
	}
	if v.metrics.cacheEvictions.Value() == 0 {
		t.Error("no evictions recorded while exceeding the cap")
	}
}

func TestStreamErrorsSurface(t *testing.T) {
	v, _ := newStreamVolume(t)
	ctx := context.Background()
	if _, err := v.ReadStream(ctx, "/missing"); !errors.Is(err, ErrNotExist) {
		t.Errorf("missing file: %v", err)
	}
	if err := v.MkdirAll(ctx, "/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.ReadStream(ctx, "/d"); !errors.Is(err, ErrIsDir) {
		t.Errorf("streaming a dir: %v", err)
	}
	if _, err := v.ReadStream(ctx, "/"); !errors.Is(err, ErrIsDir) {
		t.Errorf("streaming root: %v", err)
	}
	if _, err := v.WriteStream(ctx, "/d"); !errors.Is(err, ErrIsDir) {
		t.Errorf("stream-writing a dir: %v", err)
	}
	// Read-only volumes reject stream writes.
	if err := v.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	ro, err := Open(ctx, v.svc, "streamvol", testKey.Public().(ed25519.PublicKey), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ro.WriteStream(ctx, "/x"); !errors.Is(err, ErrReadOnly) {
		t.Errorf("read-only WriteStream err = %v", err)
	}
}

// TestBatchedReadCountsBlocks: the whole-file read through a batched
// service counts what it fetches and what the cache serves, like every
// other read path (d2_fs_blocks_read_total, d2_fs_bytes_total{dir="read"},
// d2_fs_cache_hits_total feed fs.block_gets_per_file and
// fs.cache_hit_ratio).
func TestBatchedReadCountsBlocks(t *testing.T) {
	w, svc := newStreamVolume(t)
	ctx := context.Background()
	want := randBytes(3 * BlockSize)
	if err := w.WriteFile(ctx, "/three.bin", want); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	r, err := Open(ctx, svc, "streamvol", testKey.Public().(ed25519.PublicKey), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	read := func() (blocks, bytesRead, hits uint64) {
		m := r.metrics
		b0, n0, h0 := m.blocksRead.Value(), m.bytesRead.Value(), m.cacheHits.Value()
		got, err := r.ReadFile(ctx, "/three.bin")
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("ReadFile: %v", err)
		}
		return m.blocksRead.Value() - b0, m.bytesRead.Value() - n0, m.cacheHits.Value() - h0
	}
	blocks, n, hits1 := read()
	if blocks != 4 || n < uint64(len(want)) {
		t.Errorf("first read counted %d blocks, %d bytes; want 4 (the inode and 3 data blocks) and >= %d bytes", blocks, n, len(want))
	}
	blocks, _, hits2 := read()
	if blocks != 0 || hits2-hits1 != 4 {
		t.Errorf("repeat read counted %d fetched blocks and %d more cache hits than the first; want 0 and 4", blocks, hits2-hits1)
	}
}
