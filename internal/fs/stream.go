package fs

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs/tracing"
)

// SegmentBlockService is implemented by block services with a streaming
// segment read path (the live client's GetSegment): GetMany semantics
// plus per-key not-found retries tuned for reads racing churn. The
// streaming layer prefers it over plain GetMany.
type SegmentBlockService interface {
	BatchBlockService
	GetSegment(ctx context.Context, ks []keys.Key) (map[keys.Key][]byte, error)
}

// Streaming parameters. A segment is the prefetch pipeline's unit of
// fan-out: one owner-grouped batch request covering SegmentBlocks
// consecutive content blocks. The window is how many segments may be in
// flight (issued but not yet consumed) ahead of the read cursor, so
// stream memory is bounded by maxStreamWindow*SegmentBytes regardless of
// file size.
const (
	// SegmentBlocks is the content blocks fetched per stream segment.
	SegmentBlocks = 16
	// SegmentBytes is the payload capacity of one segment buffer.
	SegmentBytes = SegmentBlocks * BlockSize
	// minStreamWindow / maxStreamWindow bound the adaptive in-flight
	// window, in segments.
	minStreamWindow = 1
	maxStreamWindow = 16
	// initStreamWindow is the window a fresh stream starts with: wide
	// enough to pipeline the second segment behind the first, narrow
	// enough that a consumer that stops after the head wastes little.
	initStreamWindow = 2
	// streamTrajectoryCap bounds the recorded window trajectory.
	streamTrajectoryCap = 256
)

// streamRamp sizes (in blocks) the first prefetch segments. A full-size
// first segment would put 128 KB on the wire ahead of the first byte,
// making TTFB a whole-segment latency; ramping 1→4→8 blocks delivers
// the first byte after a single-block fetch and reaches full segments
// within ~100 KB, like OS readahead ramps.
var streamRamp = []int{1, 4, 8}

// segBufPool recycles segment payload buffers (SegmentBytes each) so the
// steady-state consume path allocates no fresh block storage per segment.
var segBufPool = sync.Pool{
	New: func() any { return make([]byte, SegmentBytes) },
}

// StreamStats describes a finished (or in-progress) stream, for callers
// that report TTFB and sustained throughput (d2ctl cat -v, the bench harness).
type StreamStats struct {
	// TTFB is the delay from ReadStream returning to the first byte
	// handed to the consumer (zero until the first Read).
	TTFB time.Duration
	// Bytes is the total bytes delivered to the consumer so far.
	Bytes int64
	// Elapsed is the time from open to the last Read (or Close).
	Elapsed time.Duration
	// Stalls counts Reads that blocked waiting for an in-flight segment
	// (the prefetch pipeline ran behind the consumer).
	Stalls int
	// WastedBlocks counts blocks fetched but never consumed (the stream
	// was closed before the window drained).
	WastedBlocks int
	// WindowTrajectory records the adaptive window size over the
	// stream's lifetime, starting with the initial window.
	WindowTrajectory []int
}

// MBps returns the sustained consumer throughput in megabytes per second.
func (s StreamStats) MBps() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Bytes) / (1 << 20) / s.Elapsed.Seconds()
}

// StatStream is the concrete interface ReadStream's io.ReadCloser also
// satisfies: streaming callers can type-assert to read TTFB/throughput.
type StatStream interface {
	io.ReadCloser
	Stats() StreamStats
}

// streamSegment is one in-flight prefetch unit. The fetcher fills buf
// and closes done; the consumer copies out of buf and recycles it.
type streamSegment struct {
	buf    []byte // pooled, cap SegmentBytes
	n      int    // valid bytes in buf
	blocks int    // content blocks covered
	head   bool   // fetched inline by the first Read, outside the window
	err    error
	done   chan struct{}
}

// streamReader streams a file's content blocks through a windowed
// prefetch pipeline: a prefetcher walks the inode's contiguous content
// key range issuing up to `window` segment fetches ahead of the read
// cursor, with in-order reassembly and backpressure (tokens return only
// when the consumer finishes a segment, so a stalled consumer freezes
// the pipeline with at most maxStreamWindow segments of memory held).
type streamReader struct {
	v      *Volume
	ctx    context.Context
	cancel context.CancelFunc
	cur    pathCursor
	ino    Inode
	sp     *tracing.ActiveSpan

	segCh  chan *streamSegment
	tokens chan struct{}
	wg     sync.WaitGroup
	ready  atomic.Int64 // segments completed but not yet consumed

	// Consumer state, guarded by rmu (Read/Stats/Close may race; Close
	// first cancels ctx so a blocked Read wakes before cleanup).
	rmu         sync.Mutex
	headBlocks  int  // head segment size, fetched inline by the first Read
	started     bool // prefetch pipeline launched (by the first Read)
	seg         *streamSegment
	segOff      int
	window      int
	debt        int // shrink decisions waiting to swallow a returned token
	readyStreak int
	opened      time.Time
	ttfb        time.Duration
	bytes       int64
	elapsed     time.Duration
	stalls      int
	waste       int
	traj        []int
	closed      bool
	err         error
}

// ReadStream opens path for sequential streaming. The returned reader
// pipelines segment prefetches ahead of the consumer (see streamReader)
// and also implements StatStream. Close abandons outstanding segments
// without leaking goroutines or pooled buffers; it is safe to call while
// a Read is blocked.
func (v *Volume) ReadStream(ctx context.Context, path string) (io.ReadCloser, error) {
	comps := splitPath(path)
	if len(comps) == 0 {
		return nil, ErrIsDir
	}
	// The span stays open for the stream's lifetime: stream.segment
	// fetches appear under it, and Close ends it.
	sctx, sp := tracing.ChildSpan(ctx, "fs.read_stream")
	if sp != nil {
		sp.Annotate("path", path)
	}
	cur, ino, err := v.resolveFile(sctx, path, comps)
	if err != nil {
		sp.EndErr(err)
		return nil, err
	}
	v.metrics.streamOpens.Inc()
	if len(ino.BlockVers) == 0 {
		// Empty or inline content: no pipeline needed.
		sp.End()
		return &inlineStream{data: ino.Inline, opened: time.Now(), v: v}, nil
	}
	sctx, cancel := context.WithCancel(sctx)
	r := &streamReader{
		v:      v,
		ctx:    sctx,
		cancel: cancel,
		cur:    cur,
		ino:    ino,
		sp:     sp,
		segCh:  make(chan *streamSegment, maxStreamWindow),
		tokens: make(chan struct{}, maxStreamWindow),
		window: initStreamWindow,
		opened: time.Now(),
		traj:   []int{initStreamWindow},
	}
	// The first ramp segment is fetched synchronously by the first Read:
	// goroutine handoffs would sit directly on the first byte's critical
	// path, and a single-block fetch is cheaper inline than pipelined.
	r.headBlocks = streamRamp[0]
	if r.headBlocks > len(ino.BlockVers) {
		r.headBlocks = len(ino.BlockVers)
	}
	v.metrics.streamWindow.Observe(initStreamWindow)
	for i := 0; i < initStreamWindow; i++ {
		r.tokens <- struct{}{}
	}
	// The prefetcher starts from the first Read (after the inline head
	// fetch): window segments issued at open would compete with the head
	// block for the wire and push TTFB toward a full-segment latency.
	return r, nil
}

// resolveFile walks to the file at comps and returns its cursor and
// verified inode.
func (v *Volume) resolveFile(ctx context.Context, path string, comps []string) (pathCursor, Inode, error) {
	root, err := v.currentRoot(ctx)
	if err != nil {
		return pathCursor{}, Inode{}, err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.fileAt(ctx, root, path, comps)
}

// prefetch is the pipeline driver: it walks segments in order, acquiring
// one window token per issue (tokens return when the consumer finishes a
// segment — that is the backpressure), spawns the fetch, and queues the
// segment for in-order consumption. segCh's capacity is maxStreamWindow,
// and at most that many tokens exist, so the send never blocks.
func (r *streamReader) prefetch() {
	defer r.wg.Done()
	defer close(r.segCh)
	nblocks := len(r.ino.BlockVers)
	// Segment 0 (the ramp head) is the first Read's inline fetch; the
	// pipeline covers everything after it.
	for start, idx := r.headBlocks, 1; start < nblocks; idx++ {
		select {
		case <-r.ctx.Done():
			return
		case <-r.tokens:
		}
		blocks := SegmentBlocks
		if idx < len(streamRamp) {
			blocks = streamRamp[idx]
		}
		end := start + blocks
		if end > nblocks {
			end = nblocks
		}
		seg := &streamSegment{
			buf:    segBufPool.Get().([]byte),
			blocks: end - start,
			done:   make(chan struct{}),
		}
		r.v.metrics.streamSegments.Inc()
		r.wg.Add(1)
		go r.fetchSegment(seg, start, end)
		r.segCh <- seg
		start = end
	}
}

// fetchSegment fills one window segment for the prefetcher.
func (r *streamReader) fetchSegment(seg *streamSegment, start, end int) {
	defer r.wg.Done()
	defer close(seg.done)
	seg.err = r.fill(seg, start, end)
	r.ready.Add(1)
}

// fill fetches content blocks [start, end) into seg.buf, in order, traced
// as a stream.segment child of the stream's span.
func (r *streamReader) fill(seg *streamSegment, start, end int) error {
	ctx, sp := tracing.ChildSpan(r.ctx, "stream.segment")
	if sp != nil {
		sp.Annotate("first_block", start+1, "blocks", end-start)
	}
	err := r.v.fetchBlocks(ctx, r.cur, &r.ino, start, end, true, func(i int, data []byte) {
		copy(seg.buf[(i-start)*BlockSize:], data)
	})
	// Segment byte count: full blocks except possibly the file's last.
	seg.n = (end - start) * BlockSize
	if end == len(r.ino.BlockVers) {
		seg.n = int(r.ino.Size) - start*BlockSize
	}
	sp.EndErr(err)
	return err
}

// Read hands out the next in-order bytes, waiting on the front segment
// when the pipeline runs behind and adapting the window: a wait means
// the consumer outpaces the prefetcher (grow), a fully-ready window
// means the consumer is the bottleneck (shrink after a streak).
func (r *streamReader) Read(p []byte) (int, error) {
	r.rmu.Lock()
	defer r.rmu.Unlock()
	if r.err != nil {
		return 0, r.err
	}
	if r.closed {
		return 0, fmt.Errorf("fs: stream: read after Close")
	}
	if r.headBlocks > 0 && r.seg == nil && r.bytes == 0 {
		// First Read: fetch the ramp head synchronously — no pipeline
		// handoff between the caller and its first byte.
		seg := &streamSegment{
			buf:    segBufPool.Get().([]byte),
			blocks: r.headBlocks,
			head:   true,
			done:   make(chan struct{}),
		}
		close(seg.done)
		r.v.metrics.streamSegments.Inc()
		if err := r.fill(seg, 0, r.headBlocks); err != nil {
			r.recycleLocked(seg)
			return 0, r.fail(err)
		}
		r.seg, r.segOff = seg, 0
		r.started = true
		r.wg.Add(1)
		go r.prefetch()
	}
	for r.seg == nil || r.segOff == r.seg.n {
		if r.seg != nil {
			wasHead := r.seg.head
			if !wasHead {
				// A window segment was fully consumed. Judge the
				// pipeline now, before the token return launches the
				// next fetch (which would always read as not-ready): if
				// every other in-flight slot is already fetched, the
				// consumer is the bottleneck, and a sustained streak
				// shrinks the window.
				if int(r.ready.Load()) >= r.window-1 {
					r.readyStreak++
					if r.readyStreak >= 2 {
						r.setWindow(r.window - 1)
						r.readyStreak = 0
					}
				} else {
					r.readyStreak = 0
				}
			}
			r.recycleLocked(r.seg)
			r.seg = nil
			if !wasHead {
				// The head segment holds no window token to give back.
				r.returnToken()
			}
		}
		var (
			seg *streamSegment
			ok  bool
		)
		select {
		case seg, ok = <-r.segCh:
		case <-r.ctx.Done():
			return 0, r.fail(r.ctx.Err())
		}
		if !ok {
			if err := r.ctx.Err(); err != nil {
				return 0, r.fail(err)
			}
			r.elapsed = time.Since(r.opened)
			r.err = io.EOF
			r.finishMetrics()
			return 0, io.EOF
		}
		select {
		case <-seg.done:
		default:
			// The pipeline is behind the consumer: count the stall and
			// widen the window before blocking.
			r.stalls++
			r.v.metrics.streamStalls.Inc()
			r.setWindow(r.window + 1)
			r.readyStreak = 0
			select {
			case <-seg.done:
			case <-r.ctx.Done():
				// The segment buffer is still owned by the fetcher until
				// done closes; park it on r.seg so Close (which waits for
				// every fetcher first) can recycle it.
				r.seg, r.segOff = seg, 0
				return 0, r.fail(r.ctx.Err())
			}
		}
		r.ready.Add(-1)
		if seg.err != nil {
			err := seg.err
			r.recycleLocked(seg)
			return 0, r.fail(err)
		}
		r.seg, r.segOff = seg, 0
	}
	n := copy(p, r.seg.buf[r.segOff:r.seg.n])
	r.segOff += n
	if r.bytes == 0 && n > 0 {
		r.ttfb = time.Since(r.opened)
		r.v.metrics.streamTTFB.Observe(int64(r.ttfb))
	}
	r.bytes += int64(n)
	r.elapsed = time.Since(r.opened)
	r.v.metrics.streamBytes.Add(uint64(n))
	return n, nil
}

// setWindow clamps and applies a new window size, adjusting the token
// supply: growth releases an extra token (or cancels a pending debt),
// shrink swallows a free token now or defers it to the next return.
func (r *streamReader) setWindow(w int) {
	if w < minStreamWindow {
		w = minStreamWindow
	}
	if w > maxStreamWindow {
		w = maxStreamWindow
	}
	if w == r.window {
		return
	}
	if w > r.window {
		for i := 0; i < w-r.window; i++ {
			if r.debt > 0 {
				r.debt--
				continue
			}
			select {
			case r.tokens <- struct{}{}:
			default:
			}
		}
	} else {
		for i := 0; i < r.window-w; i++ {
			select {
			case <-r.tokens:
			default:
				r.debt++
			}
		}
	}
	r.window = w
	if len(r.traj) < streamTrajectoryCap {
		r.traj = append(r.traj, w)
	}
	r.v.metrics.streamWindow.Observe(int64(w))
}

// returnToken gives the consumed segment's window slot back to the
// prefetcher, unless a pending shrink swallows it.
func (r *streamReader) returnToken() {
	if r.debt > 0 {
		r.debt--
		return
	}
	select {
	case r.tokens <- struct{}{}:
	default:
	}
}

// recycleLocked returns a segment's buffer to the pool.
func (r *streamReader) recycleLocked(seg *streamSegment) {
	if seg.buf != nil {
		segBufPool.Put(seg.buf[:SegmentBytes])
		seg.buf = nil
	}
}

// fail records a sticky read error.
func (r *streamReader) fail(err error) error {
	if r.err == nil {
		r.err = err
	}
	r.elapsed = time.Since(r.opened)
	return r.err
}

// Close cancels the pipeline, waits for every goroutine, recycles all
// pooled segment buffers, and records the stream's metrics. Safe to call
// more than once and concurrently with a blocked Read.
func (r *streamReader) Close() error {
	r.cancel()
	r.rmu.Lock()
	if r.closed {
		r.rmu.Unlock()
		return nil
	}
	r.closed = true
	// Reads check closed at entry, so started is final once we hold the
	// lock — and if the first Read never ran, nothing closes segCh and
	// there is no pipeline to drain.
	started := r.started
	r.rmu.Unlock()
	r.wg.Wait()
	r.rmu.Lock()
	defer r.rmu.Unlock()
	if started {
		// Drain abandoned segments: fetchers have all returned, so every
		// segment's done channel is closed and its buffer is ours.
		for seg := range r.segCh {
			<-seg.done
			if seg.err == nil {
				r.waste += seg.blocks
			}
			r.recycleLocked(seg)
		}
	}
	if r.seg != nil {
		r.recycleLocked(r.seg)
		r.seg = nil
	}
	if r.elapsed == 0 {
		r.elapsed = time.Since(r.opened)
	}
	r.finishMetrics()
	if r.err != nil && r.err != io.EOF {
		r.sp.EndErr(r.err)
	} else {
		r.sp.End()
	}
	r.sp = nil
	return nil
}

// finishMetrics records the whole-stream aggregates (idempotent: callers
// ensure it runs once via closed/err state; waste is only known here).
func (r *streamReader) finishMetrics() {
	m := r.v.metrics
	if r.waste > 0 {
		m.streamWaste.Add(uint64(r.waste))
	}
	if r.elapsed > 0 && r.bytes > 0 {
		m.streamBps.Set(int64(float64(r.bytes) / r.elapsed.Seconds()))
	}
}

// Stats snapshots the stream's performance counters.
func (r *streamReader) Stats() StreamStats {
	r.rmu.Lock()
	defer r.rmu.Unlock()
	traj := make([]int, len(r.traj))
	copy(traj, r.traj)
	return StreamStats{
		TTFB:             r.ttfb,
		Bytes:            r.bytes,
		Elapsed:          r.elapsed,
		Stalls:           r.stalls,
		WastedBlocks:     r.waste,
		WindowTrajectory: traj,
	}
}

// inlineStream serves empty and inline files (content already in the
// metadata block) through the same StatStream interface.
type inlineStream struct {
	v      *Volume
	data   []byte
	off    int
	opened time.Time
	ttfb   time.Duration
	closed bool
}

func (s *inlineStream) Read(p []byte) (int, error) {
	if s.off >= len(s.data) {
		return 0, io.EOF
	}
	n := copy(p, s.data[s.off:])
	if s.off == 0 && n > 0 {
		s.ttfb = time.Since(s.opened)
		s.v.metrics.streamTTFB.Observe(int64(s.ttfb))
		s.v.metrics.streamBytes.Add(uint64(len(s.data)))
	}
	s.off += n
	return n, nil
}

func (s *inlineStream) Close() error { s.closed = true; return nil }

func (s *inlineStream) Stats() StreamStats {
	return StreamStats{
		TTFB:             s.ttfb,
		Bytes:            int64(s.off),
		Elapsed:          time.Since(s.opened),
		WindowTrajectory: []int{0},
	}
}
