package disk

import (
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/transport"
	"github.com/defragdht/d2/internal/wire"
)

// Log-file framing. WAL and segment files share one record format — a
// segment is simply a sorted, fully-compacted log — so recovery is a
// single replay loop over both kinds.
//
//	file   := header record*
//	header := magic(8) | u64 fileSeq
//	record := u32 bodyLen | u32 crc32c(body) | body
//	body   := u8 op | key(64) | op-specific fields
//
//	opPut:     u64 expiresUnixNano | u32 payloadLen | payload
//	opPointer: i64 size | i64 sinceUnixNano | u16 addrLen | addr
//	opDelete:  (empty)
//	opRefresh: u64 expiresUnixNano
//
// The CRC-32C covers the whole body, payload included, so replay verifies
// every block it resurrects. A record that fails its length, CRC, or
// structural checks ends replay of that file: everything before it is
// kept, the torn tail is discarded (and truncated off the active WAL so
// new appends start on a clean boundary).
const (
	headerSize = 16

	opPut     = 1
	opPointer = 2
	opDelete  = 3
	opRefresh = 4

	// recHeadSize is the fixed prefix of every record: length + CRC.
	recHeadSize = 8
	// putPayloadOff is the payload's offset from the record start:
	// head(8) + op(1) + key(64) + expires(8) + payloadLen(4).
	putPayloadOff = recHeadSize + 1 + keys.Size + 8 + 4

	// maxBody caps a record body on replay so a corrupt length field
	// cannot drive an allocation (64-byte key + bounded payload).
	maxBody = 1 + keys.Size + 8 + 4 + (128 << 20)
)

var (
	magicWAL = [8]byte{'D', '2', 'W', 'A', 'L', 'v', '0', '1'}
	magicSeg = [8]byte{'D', '2', 'S', 'E', 'G', 'v', '0', '1'}
)

// appendHeader appends a log-file header.
func appendHeader(b []byte, magic [8]byte, seq uint64) []byte {
	b = append(b, magic[:]...)
	return wire.AppendU64(b, seq)
}

// beginRecord reserves a record's length + CRC prefix at the end of b and
// returns where it sits; the caller appends the body and calls endRecord.
// Records are encoded in place, so a batch of puts costs one buffer and
// one copy of each payload.
func beginRecord(b []byte) ([]byte, int) {
	at := len(b)
	return append(b, make([]byte, recHeadSize)...), at
}

// endRecord fills in the prefix of the record begun at offset at, whose
// body is everything appended since.
func endRecord(b []byte, at int) []byte {
	body := b[at+recHeadSize:]
	wire.PutU32(b, at, uint32(len(body)))
	wire.PutU32(b, at+4, wire.Checksum(body))
	return b
}

// appendPut appends an opPut record for k.
func appendPut(b []byte, k keys.Key, expires int64, data []byte) []byte {
	b, at := beginRecord(b)
	b = wire.AppendU8(b, opPut)
	b = append(b, k[:]...)
	b = wire.AppendU64(b, uint64(expires))
	b = wire.AppendU32(b, uint32(len(data)))
	b = append(b, data...)
	return endRecord(b, at)
}

// appendPointer appends an opPointer record for k.
func appendPointer(b []byte, k keys.Key, target transport.Addr, size, since int64) []byte {
	b, at := beginRecord(b)
	b = wire.AppendU8(b, opPointer)
	b = append(b, k[:]...)
	b = wire.AppendI64(b, size)
	b = wire.AppendI64(b, since)
	b = wire.AppendShortString(b, string(target))
	return endRecord(b, at)
}

// appendDelete appends an opDelete record for k.
func appendDelete(b []byte, k keys.Key) []byte {
	b, at := beginRecord(b)
	b = wire.AppendU8(b, opDelete)
	b = append(b, k[:]...)
	return endRecord(b, at)
}

// appendRefresh appends an opRefresh record for k.
func appendRefresh(b []byte, k keys.Key, expires int64) []byte {
	b, at := beginRecord(b)
	b = wire.AppendU8(b, opRefresh)
	b = append(b, k[:]...)
	b = wire.AppendU64(b, uint64(expires))
	return endRecord(b, at)
}

// record is one decoded log record.
type record struct {
	op      byte
	key     keys.Key
	expires int64
	size    int64
	since   int64
	addr    transport.Addr
	// payloadOff/payloadLen locate an opPut payload inside the record
	// body (relative to the body start).
	payloadOff int
	payloadLen int
}

// decodeBody parses a record body (CRC already verified).
func decodeBody(body []byte) (record, error) {
	r := wire.NewReader(body)
	var rec record
	rec.op = r.U8()
	kb := r.Take(keys.Size)
	if kb != nil {
		copy(rec.key[:], kb)
	}
	switch rec.op {
	case opPut:
		rec.expires = int64(r.U64())
		n := r.U32()
		rec.payloadOff = 1 + keys.Size + 8 + 4
		rec.payloadLen = int(n)
		if r.Take(int(n)) == nil {
			return rec, fmt.Errorf("%w: put payload", wire.ErrTruncated)
		}
	case opPointer:
		rec.size = r.I64()
		rec.since = r.I64()
		rec.addr = transport.Addr(r.ShortString())
		if rec.addr == "" && r.Err() == nil {
			return rec, fmt.Errorf("%w: empty pointer target", wire.ErrMalformed)
		}
	case opDelete:
	case opRefresh:
		rec.expires = int64(r.U64())
	default:
		return rec, fmt.Errorf("%w: unknown op %d", wire.ErrMalformed, rec.op)
	}
	if err := r.Err(); err != nil {
		return rec, err
	}
	r.ExpectEmpty()
	return rec, r.Err()
}

// FsyncPolicy selects when acknowledged writes reach stable storage.
type FsyncPolicy uint8

const (
	// FsyncAlways group-commits: every write waits for an fsync covering
	// its record, but concurrent writers share one fsync (default).
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval fsyncs on a timer; writes return immediately and a
	// crash can lose up to one interval of acknowledged writes.
	FsyncInterval
	// FsyncNever leaves flushing to the OS (and to Flush/Close).
	FsyncNever
)

// ParseFsyncPolicy maps the -fsync flag values to a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "", "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("disk: unknown fsync policy %q (want always, interval, or never)", s)
}

// logFile is what the WAL writer needs of its file. The engine hands it an
// *os.File; tests substitute one whose writes or fsyncs fail.
type logFile interface {
	WriteAt(p []byte, off int64) (int, error)
	Sync() error
}

// walWriter appends records to the active WAL file and runs the
// group-commit fsync machinery. Appends are serialized by the store's
// write lock; the commit state below has its own lock so waiters never
// hold up appenders.
type walWriter struct {
	seq uint64
	f   logFile
	off int64

	policy      FsyncPolicy
	stallThresh time.Duration

	mu       sync.Mutex
	cond     *sync.Cond
	appended uint64 // records appended so far (commit sequence numbers)
	synced   uint64 // records covered by a completed fsync
	syncErr  error  // sticky fsync failure
	closing  bool

	kick chan struct{} // wakes the syncer; buffered(1) so kicks coalesce
	quit chan struct{}
	wg   sync.WaitGroup

	m *metrics
}

func newWALWriter(f *os.File, seq uint64, off int64, policy FsyncPolicy, interval, stallThresh time.Duration, m *metrics) *walWriter {
	w := &walWriter{
		seq: seq, f: f, off: off,
		policy:      policy,
		stallThresh: stallThresh,
		kick:        make(chan struct{}, 1),
		quit:        make(chan struct{}),
		m:           m,
	}
	w.cond = sync.NewCond(&w.mu)
	switch policy {
	case FsyncAlways:
		w.wg.Add(1)
		go w.syncLoop()
	case FsyncInterval:
		w.wg.Add(1)
		go w.intervalLoop(interval)
	}
	return w
}

// append writes recs — n framed records back to back — with one write,
// returning the first record's start offset and the last one's commit
// sequence number. The write lands at the writer's own offset, so a
// failed or short write moves nothing: the next append overwrites the
// torn bytes, and until then replay stops at them. The caller must hold
// the store's write lock.
func (w *walWriter) append(recs []byte, n int) (start int64, seq uint64, err error) {
	start = w.off
	if _, err = w.f.WriteAt(recs, start); err != nil {
		return 0, 0, err
	}
	w.off += int64(len(recs))
	w.m.walAppends.Add(uint64(n))
	w.m.walBytes.Add(uint64(len(recs)))
	w.mu.Lock()
	w.appended += uint64(n)
	seq = w.appended
	w.mu.Unlock()
	return start, seq, nil
}

// wait blocks until the record with the given commit sequence is durable
// under the writer's policy. Call without holding the store lock.
func (w *walWriter) wait(seq uint64) error {
	if w.policy != FsyncAlways {
		return nil
	}
	select {
	case w.kick <- struct{}{}:
	default:
	}
	start := time.Now()
	w.mu.Lock()
	// A writer being closed (shutdown, or a checkpoint rotating the log)
	// still fsyncs everything appended to it, so waiting on synced alone
	// is enough — and returning at the close signal would acknowledge a
	// record before that last fsync.
	for w.synced < seq && w.syncErr == nil {
		w.cond.Wait()
	}
	err := w.syncErr
	w.mu.Unlock()
	if d := time.Since(start); d >= w.stallThresh {
		w.m.walStalls.Inc()
	}
	return err
}

// syncLoop is the group-commit goroutine: each pass covers every record
// appended before the fsync started, so N concurrent writers share one
// fsync.
func (w *walWriter) syncLoop() {
	defer w.wg.Done()
	for {
		select {
		case <-w.quit:
			return
		case <-w.kick:
		}
		w.mu.Lock()
		target := w.appended
		done := target <= w.synced
		w.mu.Unlock()
		if done {
			continue
		}
		w.syncTo(target)
	}
}

// intervalLoop fsyncs on a timer under FsyncInterval.
func (w *walWriter) intervalLoop(interval time.Duration) {
	defer w.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-w.quit:
			return
		case <-t.C:
			w.mu.Lock()
			target := w.appended
			done := target <= w.synced
			w.mu.Unlock()
			if !done {
				w.syncTo(target)
			}
		}
	}
}

// syncTo fsyncs the file and marks records up to target durable.
func (w *walWriter) syncTo(target uint64) {
	t0 := time.Now()
	err := w.f.Sync()
	w.m.walFsyncs.Inc()
	w.m.fsyncNs.Observe(time.Since(t0).Nanoseconds())
	w.mu.Lock()
	if err != nil && w.syncErr == nil {
		w.syncErr = err
		w.m.walErrors.Inc()
	}
	if target > w.synced {
		w.m.groupCommit.Observe(int64(target - w.synced))
		w.synced = target
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

// flush forces an fsync covering everything appended so far (the
// clean-shutdown and checkpoint barrier), regardless of policy.
func (w *walWriter) flush() error {
	w.mu.Lock()
	target := w.appended
	w.mu.Unlock()
	w.syncTo(target)
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncErr
}

// close stops the sync machinery after a final flush. It does not close
// the underlying file, which stays open for reads until the store drops
// it.
func (w *walWriter) close() error {
	w.mu.Lock()
	if w.closing {
		w.mu.Unlock()
		return w.syncErr
	}
	w.closing = true
	w.cond.Broadcast()
	w.mu.Unlock()
	close(w.quit)
	w.wg.Wait()
	return w.flush()
}
