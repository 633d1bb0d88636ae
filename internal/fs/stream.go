package fs

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"github.com/defragdht/d2/internal/obs/tracing"
)

// SegmentBlockService is another name for BlockService.
//
// Deprecated: use BlockService.
type SegmentBlockService = BlockService

// Streaming parameters. A segment is the prefetch pipeline's unit of
// fan-out: one owner-grouped batch request covering SegmentBlocks
// consecutive content blocks. The window is how many segments may be in
// flight (issued but not yet consumed) ahead of the read cursor, so
// stream memory is bounded by streamWindow*SegmentBytes regardless of
// file size.
const (
	// SegmentBlocks is the content blocks fetched per stream segment.
	SegmentBlocks = 16
	// SegmentBytes is the payload capacity of one segment buffer.
	SegmentBytes = SegmentBlocks * BlockSize
	// streamWindow is the fixed in-flight window, in segments: 1 MB of
	// payload, like the paper's fixed cap on simultaneous transfers. On
	// the stream-read workload 8 reads as fast as an adaptive window and
	// holds less memory; 16 raised TTFB and saved nothing.
	streamWindow = 8
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

// streamSegment is one window entry: content blocks [start, end) fetched
// into a pooled buffer. The fetcher fills buf and closes done; the
// consumer copies out of buf and recycles it.
type streamSegment struct {
	buf        []byte // pooled, cap SegmentBytes
	n          int    // valid bytes in buf
	start, end int    // content blocks covered
	err        error
	done       chan struct{}
}

// streamReader streams a file through a window of segment fetches that
// the consumer keeps full itself: walking the inode's contiguous content
// key range, it issues fetches ahead of the read cursor until
// streamWindow segments are in flight or the file is covered, and issues
// another only when it finishes one. That is the backpressure: a stalled
// consumer freezes the stream with at most streamWindow segments of
// memory held. An empty or inline file is one segment that needs no
// fetch.
type streamReader struct {
	v      *Volume
	ctx    context.Context
	cancel context.CancelFunc
	cur    pathCursor
	ino    Inode
	sp     *tracing.ActiveSpan
	wg     sync.WaitGroup // segment fetches

	// Consumer state, guarded by rmu (Read/Stats/Close may race; Close
	// first cancels ctx so a blocked Read wakes before cleanup).
	rmu     sync.Mutex
	window  []*streamSegment // issued and not yet consumed, in file order
	next    int              // first content block not yet issued
	issued  int              // segments issued; indexes streamRamp
	segOff  int              // bytes of window[0] already read
	opened  time.Time
	ttfb    time.Duration
	bytes   int64
	elapsed time.Duration
	stalls  int
	waste   int
	closed  bool
	err     error
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
	sctx, cancel := context.WithCancel(sctx)
	r := &streamReader{
		v:      v,
		ctx:    sctx,
		cancel: cancel,
		cur:    cur,
		ino:    ino,
		sp:     sp,
		window: make([]*streamSegment, 0, streamWindow+1),
		opened: time.Now(),
	}
	if len(ino.BlockVers) == 0 {
		// Copy the content: ino.Inline may alias a cached block, and only
		// the pool's own buffers may go back to segBufPool.
		seg := &streamSegment{buf: segBufPool.Get().([]byte), done: make(chan struct{})}
		seg.n = copy(seg.buf, ino.Inline)
		close(seg.done)
		r.window = append(r.window, seg)
		return r, nil
	}
	v.metrics.streamWindow.Observe(streamWindow)
	// Fetches start with the first Read: segments issued at open would
	// compete with the head block for the wire and push TTFB toward a
	// full-segment latency.
	return r, nil
}

// resolveFile walks to the file at comps and returns its cursor and
// verified inode.
func (v *Volume) resolveFile(ctx context.Context, path string, comps []string) (pathCursor, Inode, error) {
	st, err := v.beginRead(ctx)
	if err != nil {
		return pathCursor{}, Inode{}, err
	}
	defer v.endRead()
	f, err := v.fileAt(ctx, st, path, comps)
	return f.cur, f.ino, err
}

// issue appends the next segment, sized by streamRamp, to the window.
func (r *streamReader) issue() *streamSegment {
	blocks := SegmentBlocks
	if r.issued < len(streamRamp) {
		blocks = streamRamp[r.issued]
	}
	seg := &streamSegment{
		buf:   segBufPool.Get().([]byte),
		start: r.next,
		end:   min(r.next+blocks, len(r.ino.BlockVers)),
		done:  make(chan struct{}),
	}
	r.next = seg.end
	r.issued++
	r.window = append(r.window, seg)
	r.v.metrics.streamSegments.Inc()
	return seg
}

// refill issues segment fetches until streamWindow segments are in the
// window or the file is covered. The head the first Read fetched holds
// no slot: while it is still in the window (no segment has left it), the
// window holds one segment more.
func (r *streamReader) refill() {
	slots := streamWindow
	if len(r.window) == r.issued {
		slots++
	}
	for len(r.window) < slots && r.next < len(r.ino.BlockVers) {
		seg := r.issue()
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.fetch(seg)
		}()
	}
}

// fetch fills seg with its content blocks, in order, traced as a
// stream.segment child of the stream's span, and marks it done.
func (r *streamReader) fetch(seg *streamSegment) {
	defer close(seg.done)
	ctx, sp := tracing.ChildSpan(r.ctx, "stream.segment")
	if sp != nil {
		sp.Annotate("first_block", seg.start+1, "blocks", seg.end-seg.start)
	}
	seg.err = r.v.fetchSegment(ctx, r.cur, &r.ino, seg.start, seg.end, func(i int, data []byte) {
		copy(seg.buf[(i-seg.start)*BlockSize:], data)
	})
	// Segment byte count: full blocks except possibly the file's last.
	seg.n = (seg.end - seg.start) * BlockSize
	if seg.end == len(r.ino.BlockVers) {
		seg.n = int(r.ino.Size) - seg.start*BlockSize
	}
	sp.EndErr(seg.err)
}

// Read hands out the next in-order bytes, waiting on the front segment
// when its fetch runs behind the consumer.
func (r *streamReader) Read(p []byte) (int, error) {
	r.rmu.Lock()
	defer r.rmu.Unlock()
	if r.err != nil {
		return 0, r.err
	}
	if r.closed {
		return 0, fmt.Errorf("fs: stream: read after Close")
	}
	if r.issued == 0 && len(r.ino.BlockVers) > 0 {
		// First Read: fetch the 1-block ramp head synchronously — no
		// goroutine handoff between the caller and its first byte — then
		// fill the window behind it.
		head := r.issue()
		r.fetch(head)
		if head.err == nil {
			r.refill()
		}
	}
	var seg *streamSegment
	for {
		if len(r.window) == 0 {
			r.elapsed = time.Since(r.opened)
			r.err = io.EOF
			r.finishMetrics()
			return 0, io.EOF
		}
		seg = r.window[0]
		if err := r.wait(seg); err != nil {
			return 0, r.fail(err)
		}
		if r.segOff < seg.n {
			break
		}
		// The consumer finished seg: recycle it and use its slot.
		r.window = slices.Delete(r.window, 0, 1)
		segBufPool.Put(seg.buf)
		r.segOff = 0
		r.refill()
	}
	n := copy(p, seg.buf[r.segOff:seg.n])
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

// wait blocks until seg's fetch is done, counting a stall when the
// consumer got there first, and returns the fetch's error. A segment
// whose wait the cancel cut short stays in the window for Close.
func (r *streamReader) wait(seg *streamSegment) error {
	select {
	case <-seg.done:
		return seg.err
	default:
	}
	r.stalls++
	r.v.metrics.streamStalls.Inc()
	select {
	case <-seg.done:
		return seg.err
	case <-r.ctx.Done():
		return r.ctx.Err()
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

// Close cancels the stream, waits for its fetches, recycles every
// segment left in the window, and records the stream's metrics. Safe to
// call more than once and concurrently with a blocked Read.
func (r *streamReader) Close() error {
	r.cancel()
	r.rmu.Lock()
	if r.closed {
		r.rmu.Unlock()
		return nil
	}
	r.closed = true
	r.rmu.Unlock()
	// Reads now return at entry, so no refill adds to wg while we wait.
	r.wg.Wait()
	r.rmu.Lock()
	defer r.rmu.Unlock()
	for i, seg := range r.window {
		// Every fetch has returned, so each buffer is ours. A fetched
		// segment no byte of which was read is waste.
		if seg.err == nil && (i > 0 || r.segOff == 0) {
			r.waste += seg.end - seg.start
		}
		segBufPool.Put(seg.buf)
	}
	r.window = nil
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
	return StreamStats{
		TTFB:         r.ttfb,
		Bytes:        r.bytes,
		Elapsed:      r.elapsed,
		Stalls:       r.stalls,
		WastedBlocks: r.waste,
	}
}
