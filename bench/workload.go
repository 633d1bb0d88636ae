package main

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/defragdht/d2/internal/fs"
	"github.com/defragdht/d2/internal/parexp"
)

// Workload names are normative: later issues and BENCHMARK.json cite them.
const (
	wlWalkSmall  = "walk-small"
	wlStreamRead = "stream-read"
	wlWriteSync  = "write-sync"
	wlMixedOpen  = "mixed-open"
)

var workloadNames = []string{wlWalkSmall, wlStreamRead, wlWriteSync, wlMixedOpen}

// scale fixes the data-set sizes. fullScale is what every reported
// number uses; smokeScale shrinks the preload so the tier-1 test can run
// all four workloads in seconds.
type scale struct {
	walkVols, walkDirs, walkFiles int
	streamFiles, streamBytes      int
	bulkBytes                     int
	// setupReps is how many times an untraced run sets up (boot, preload,
	// warm pass) to report setup_s as a median.
	setupReps int
	// driverSeconds is the fixed duration of each direct layer driver.
	driverSeconds float64
}

// fullScale halves two of the issue's sizes (24 directories per volume,
// 16 MB stream files) because the benchmark contract caps a whole run —
// three set-ups plus the timed phase — at well under a minute. 8 MB is
// still 64 full segments: the stream window finishes its 2→16 ramp within
// the first 4 MB.
var fullScale = scale{
	walkVols: 8, walkDirs: 12, walkFiles: 16,
	streamFiles: 4, streamBytes: 8 << 20,
	bulkBytes:     4 << 20,
	setupReps:     3,
	driverSeconds: 2,
}

var smokeScale = scale{
	walkVols: 2, walkDirs: 3, walkFiles: 4,
	streamFiles: 2, streamBytes: 1 << 20,
	bulkBytes:     256 << 10,
	setupReps:     1,
	driverSeconds: 0.1,
}

// runCfg is everything one run depends on.
type runCfg struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	sc       scale
	clients  int
	dataRoot string
	traceOut string
}

// tally counts operations attempted and failed. Every error, checksum
// mismatch and unreadable acknowledged file lands here — a wrong byte is
// a failed operation, never a log line.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu   sync.Mutex
	errs []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.errs) < 8 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// phaseResult is what one measured phase of a workload yields; each
// workload says in report() what its ops and latencies are.
type phaseResult struct {
	seconds float64
	ops     int64   // the workload's unit of work completed and verified
	bytes   int64   // user bytes verified (reads) or acknowledged (writes)
	lat     []int64 // ns, the latency the workload reports percentiles of
	events  []done  // completions, for the closed loops' per-second windows
	// mixed-open only
	rates []rateResult
	late  []int64 // ns the generator enqueued each op after its due time
}

// total sums the completions into ops and bytes.
func (r *phaseResult) total() {
	for _, e := range r.events {
		r.ops += e.ops
		r.bytes += e.bytes
	}
}

// workload is one of the four live-ring workloads.
type workload interface {
	// planHash identifies the inputs this seed generated.
	planHash() string
	// setup preloads the ring and runs one warm pass.
	setup(ctx context.Context, r *ring) error
	// run drives load for d. A reference phase (the traced run's
	// recorder-off baseline) may run a reduced schedule.
	run(ctx context.Context, d time.Duration, reference bool) phaseResult
	// verify checks what only shows after the run: acknowledged writes
	// read back (for write-sync, after restarting a node).
	verify(ctx context.Context, r *ring, doc *runDoc) error
	// clients are the load sessions, for reading their counters.
	clients() []*session
	// release closes the workload's clients.
	release()
	// report turns a phase into the workload's end-to-end metrics.
	report(doc *runDoc, res phaseResult)
	// userBytes is every user byte written to the ring since boot.
	userBytes() int64
}

func newWorkload(cfg runCfg, t *tally, rec *recorder) (workload, error) {
	switch cfg.workload {
	case wlWalkSmall:
		return newWalkSmall(cfg, t, rec), nil
	case wlStreamRead:
		return newStreamRead(cfg, t, rec), nil
	case wlWriteSync:
		return newWriteSync(cfg, t, rec), nil
	case wlMixedOpen:
		return newMixedOpen(cfg, t, rec), nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q (have %v)", cfg.workload, workloadNames)
}

// tvol is a volume handle whose calls are recorded as fs-layer spans in a
// traced run. With a nil recorder each helper is the bare call plus one
// nil check.
type tvol struct {
	v   *fs.Volume
	rec *recorder
}

func (s *session) openVol(ctx context.Context, rec *recorder, vi volInfo, writable bool) (tvol, error) {
	ctx, sp := rec.start(ctx, layFS, fsOpen, 0)
	priv := vi.priv
	if !writable {
		priv = nil
	}
	v, err := s.open(ctx, vi.name, vi.pub, priv)
	sp.end(err)
	return tvol{v: v, rec: rec}, err
}

func (t tvol) readDir(ctx context.Context, path string) ([]fs.FileInfo, error) {
	ctx, sp := t.rec.start(ctx, layFS, fsReadDir, 0)
	out, err := t.v.ReadDir(ctx, path)
	sp.end(err)
	return out, err
}

func (t tvol) readFile(ctx context.Context, path string) ([]byte, error) {
	ctx, sp := t.rec.start(ctx, layFS, fsReadFile, 0)
	data, err := t.v.ReadFile(ctx, path)
	sp.s.bytes = uint32(len(data))
	sp.end(err)
	return data, err
}

func (t tvol) mkdir(ctx context.Context, path string) error {
	ctx, sp := t.rec.start(ctx, layFS, fsMkdir, 0)
	err := t.v.Mkdir(ctx, path)
	sp.end(err)
	return err
}

func (t tvol) writeFile(ctx context.Context, path string, data []byte) error {
	ctx, sp := t.rec.start(ctx, layFS, fsWriteFile, 0)
	sp.s.bytes = uint32(len(data))
	err := t.v.WriteFile(ctx, path, data)
	sp.end(err)
	return err
}

func (t tvol) sync(ctx context.Context) error {
	ctx, sp := t.rec.start(ctx, layFS, fsSync, 0)
	err := t.v.Sync(ctx)
	sp.end(err)
	return err
}

// writeStream ingests size bytes produced by next (called with a scratch
// buffer to fill) through WriteStream and closes it.
func (t tvol) writeStream(ctx context.Context, path string, size int, next func([]byte)) error {
	ctx, sp := t.rec.start(ctx, layFS, fsWriteStream, 0)
	sp.s.bytes = uint32(size)
	err := func() error {
		w, err := t.v.WriteStream(ctx, path)
		if err != nil {
			return err
		}
		buf := make([]byte, 256<<10)
		for left := size; left > 0; {
			n := len(buf)
			if n > left {
				n = left
			}
			_, vs := t.rec.start(ctx, layOp, opVerify, 0)
			next(buf[:n])
			vs.end(nil)
			if _, err := w.Write(buf[:n]); err != nil {
				_ = w.Close()
				return err
			}
			left -= n
		}
		return w.Close()
	}()
	sp.end(err)
	return err
}

// readStream reads path to EOF through ReadStream and a CRC-32C hasher.
// ttfb runs from before the open to the first byte delivered.
func (t tvol) readStream(ctx context.Context, path string, buf []byte) (n int64, sum uint32, ttfb time.Duration, err error) {
	ctx, sp := t.rec.start(ctx, layFS, fsReadStream, 0)
	t0 := time.Now()
	n, sum, ttfb, err = func() (int64, uint32, time.Duration, error) {
		rs, err := t.v.ReadStream(ctx, path)
		if err != nil {
			return 0, 0, 0, err
		}
		defer rs.Close()
		var total int64
		var first time.Duration
		h := crc32.New(castagnoli)
		for {
			k, rerr := rs.Read(buf)
			if k > 0 {
				if total == 0 {
					first = time.Since(t0)
				}
				total += int64(k)
				_, vs := t.rec.start(ctx, layOp, opVerify, 0)
				h.Write(buf[:k])
				vs.end(nil)
			}
			if rerr == io.EOF {
				return total, h.Sum32(), first, nil
			}
			if rerr != nil {
				return total, 0, first, rerr
			}
		}
	}()
	if n > 0 {
		sp.s.bytes = uint32(min(n, 1<<31))
	}
	sp.end(err)
	return n, sum, ttfb, err
}

func (t tvol) close(ctx context.Context) error { return t.v.Close(ctx) }

// parallel runs fn(i) for i in [0, n) on up to width goroutines and
// returns what failed.
func parallel(n, width int, fn func(i int) error) error {
	return errors.Join(parexp.Map(width, n, fn)...)
}

// preloadWriters is how many writers preload in parallel. It is set-up,
// not load: the timed phases always use cfg.clients goroutines.
const preloadWriters = 4
