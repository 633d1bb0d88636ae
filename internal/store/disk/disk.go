// Package disk is D2's durable local block store: a write-ahead log with
// group-commit fsync, immutable segment files produced by checkpointing,
// and the in-memory ordered index it shares with the memory engine
// (store.Index, holding file locations instead of payloads) so the range
// scans migration and load balancing depend on stay fast. It implements
// store.Engine; the paper's D2-Store sat on BerkeleyDB, this plays that
// role natively.
//
// Every mutation is appended to the active WAL before it is applied to
// the index; a put's payload is thereafter served straight from the log
// file by offset (pread), so the write path costs one sequential write
// plus a shared fsync, and the memory footprint is index metadata only —
// volumes larger than RAM fit. When the WAL exceeds a threshold a
// checkpoint streams the live entries, in key order, into a fresh
// segment file and truncates the log; recovery replays the newest
// segment and then the WAL layered over it, verifying every record's
// CRC-32C and discarding a torn tail. The node's ring identity persists
// alongside the blocks (IDENTITY), so a restarted node rejoins with its
// old arc intact.
package disk

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs"
	"github.com/defragdht/d2/internal/store"
	"github.com/defragdht/d2/internal/transport"
	"github.com/defragdht/d2/internal/wire"
)

// Options tunes the engine; zero values take production defaults.
type Options struct {
	// Fsync selects the durability policy (default FsyncAlways:
	// group-committed fsync per acknowledged write).
	Fsync FsyncPolicy
	// FsyncInterval is the timer period under FsyncInterval (default
	// 100 ms).
	FsyncInterval time.Duration
	// CheckpointBytes is the WAL size from which a background checkpoint
	// may run (default 64 MiB); it runs once at least half of what the log
	// files hold is dead, see checkpointDue.
	CheckpointBytes int64
	// Metrics receives the d2_store_* series (nil = private registry).
	Metrics *obs.Registry
}

func (o *Options) applyDefaults() {
	if o.FsyncInterval == 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	if o.CheckpointBytes == 0 {
		o.CheckpointBytes = 64 << 20
	}
}

// loc is where a data entry's payload lives on disk: 16 bytes, no
// pointers, so with its deadline an index entry is 24 bytes the garbage
// collector never scans. A data entry's size is its length; a pointer
// entry's loc is zero (file sequences start at 1).
type loc struct {
	off    int64  // payload offset within that file
	file   uint32 // seq of the WAL/segment file holding the payload
	length uint32 // payload length
}

// maxSeq is the largest file sequence a loc can name. Open refuses a
// directory past it and a checkpoint refuses to allocate one, rather
// than let a location wrap onto another file.
const maxSeq = math.MaxUint32

// locLen is the index's payload size: a data entry's size is its length.
func locLen(l loc) int64 { return int64(l.length) }

// entry is one slot of the shared index, holding a file location in
// place of the payload.
type entry = store.Entry[loc]

// RecoveryStats describes what Open rebuilt from disk.
type RecoveryStats struct {
	// Blocks and Pointers are the live entries after replay.
	Blocks, Pointers int
	// Records is the total log records replayed (including superseded
	// and deleted ones).
	Records int
	// TornRecords counts records discarded for failing length, CRC, or
	// structural checks.
	TornRecords int
	// Segments and WALs are the files replayed.
	Segments, WALs int
}

// Store is the durable engine. It is safe for concurrent use.
type Store struct {
	dir string
	opt Options

	// mu guards the index and files, man, segBytes, w, seq and closed.
	mu sync.RWMutex
	// The shared index serves every read-side Engine method.
	*store.Index[loc]

	files    map[uint64]*os.File // open handles: segment + WAL files
	man      manifest            // current durable manifest
	segBytes int64
	w        *walWriter
	seq      uint64 // last allocated file sequence number
	closed   bool

	ckptMu      sync.Mutex // serializes checkpoints
	ckptRunning atomic.Bool
	// ckptSnapped, when set, runs once a checkpoint has taken its
	// snapshot and released the lock (a test hook: writes it makes land
	// between the snapshot and the commit).
	ckptSnapped func()

	m   *metrics
	rec RecoveryStats

	// encBuf recycles record encode buffers across mutations.
	encPool sync.Pool
}

var _ store.Engine = (*Store)(nil)
var _ store.IdentityStore = (*Store)(nil)
var _ store.BatchPutter = (*Store)(nil)

// Open loads (or initializes) the engine at dir: read the MANIFEST,
// delete orphans from interrupted checkpoints, replay the newest segment
// and the WALs over it verifying checksums, truncate any torn tail off
// the active WAL, and resume appending.
func Open(dir string, opt Options) (*Store, error) {
	opt.applyDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("disk: open %s: %w", dir, err)
	}
	s := &Store{
		dir:   dir,
		opt:   opt,
		files: map[uint64]*os.File{},
	}
	s.Index = store.NewIndex(&s.mu, s.readPayload, locLen)
	s.m = newMetrics(opt.Metrics, s)

	man, ok, err := readManifest(dir)
	if err != nil {
		return nil, fmt.Errorf("disk: open %s: %w", dir, err)
	}
	if !ok {
		// Fresh directory: WAL 1, no segment.
		man = manifest{walSeqs: []uint64{1}}
		if _, err := createLogFile(dir, walName(1), magicWAL, 1); err != nil {
			return nil, fmt.Errorf("disk: open %s: %w", dir, err)
		}
		if err := writeManifest(dir, man); err != nil {
			return nil, fmt.Errorf("disk: open %s: %w", dir, err)
		}
	}
	s.seq = max(man.segSeq, slices.Max(man.walSeqs))
	if s.seq > maxSeq {
		return nil, fmt.Errorf("disk: open %s: file sequence %d does not fit the index's 32-bit file field", dir, s.seq)
	}
	s.man = man
	if err := s.removeOrphans(); err != nil {
		s.closeFiles()
		return nil, fmt.Errorf("disk: open %s: %w", dir, err)
	}

	// Replay: segment first, then the WALs layered over it, oldest
	// first. The active WAL (last) gets its torn tail truncated so new
	// appends start on a clean record boundary.
	if man.segSeq != 0 {
		if _, err := s.replayFile(man.segSeq, segName(man.segSeq), magicSeg, false); err != nil {
			s.closeFiles()
			return nil, fmt.Errorf("disk: open %s: %w", dir, err)
		}
		s.rec.Segments++
		if f := s.files[man.segSeq]; f != nil {
			if st, err := f.Stat(); err == nil {
				s.segBytes = st.Size()
			}
		}
	}
	var walEnd int64
	for i, seq := range man.walSeqs {
		active := i == len(man.walSeqs)-1
		end, err := s.replayFile(seq, walName(seq), magicWAL, active)
		if err != nil {
			s.closeFiles()
			return nil, fmt.Errorf("disk: open %s: %w", dir, err)
		}
		s.rec.WALs++
		if active {
			walEnd = end
		}
	}

	// Count the live state recovery produced.
	s.Ascend(func(k keys.Key, _ entry) bool {
		if _, ptr := s.Pointer(k); ptr {
			s.rec.Pointers++
		} else {
			s.rec.Blocks++
		}
		return true
	})

	activeSeq := man.walSeqs[len(man.walSeqs)-1]
	activeFile := s.files[activeSeq]
	if _, err := activeFile.Seek(walEnd, 0); err != nil {
		s.closeFiles()
		return nil, fmt.Errorf("disk: open %s: %w", dir, err)
	}
	s.w = newWALWriter(activeFile, activeSeq, walEnd,
		opt.Fsync, opt.FsyncInterval, s.m)
	return s, nil
}

// createLogFile creates a WAL or segment file with its header written
// and synced, returning the open handle.
func createLogFile(dir, name string, magic [8]byte, seq uint64) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := appendHeader(make([]byte, 0, headerSize), magic, seq)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// removeOrphans deletes wal-/seg- files the manifest does not reference
// (leftovers of a checkpoint interrupted by a crash) and stray temp
// files.
func (s *Store) removeOrphans() error {
	referenced := map[string]bool{manifestName: true, identityName: true}
	for _, seq := range s.man.walSeqs {
		referenced[walName(seq)] = true
	}
	if s.man.segSeq != 0 {
		referenced[segName(s.man.segSeq)] = true
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, de := range entries {
		name := de.Name()
		if referenced[name] {
			continue
		}
		if strings.HasSuffix(name, ".tmp") ||
			strings.HasPrefix(name, "wal-") || strings.HasPrefix(name, "seg-") {
			if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// replayFile opens and replays one log file into the index, verifying
// each record's CRC. It stops at the first bad record; when truncate is
// set (the active WAL) the torn tail is cut off so appends resume
// cleanly. Returns the end offset of the valid prefix.
func (s *Store) replayFile(seq uint64, name string, magic [8]byte, truncate bool) (int64, error) {
	f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_RDWR, 0)
	if err != nil {
		return 0, err
	}
	s.files[seq] = f

	var hdr [headerSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		// A header shorter than headerSize is a file torn at creation:
		// recoverable for the active WAL (rewrite the header), fatal for
		// a segment (it was synced before the manifest named it).
		if !truncate {
			return 0, fmt.Errorf("replay %s: header: %w", name, err)
		}
		if err := f.Truncate(0); err != nil {
			return 0, err
		}
		h := appendHeader(make([]byte, 0, headerSize), magic, seq)
		if _, err := f.WriteAt(h, 0); err != nil {
			return 0, err
		}
		s.m.torn.Inc()
		s.rec.TornRecords++
		return headerSize, nil
	}
	if [8]byte(hdr[:8]) != magic {
		return 0, fmt.Errorf("replay %s: bad magic", name)
	}

	off := int64(headerSize)
	head := make([]byte, recHeadSize)
	var body []byte
	for {
		if _, err := f.ReadAt(head, off); err != nil {
			break // clean EOF or torn length field: stop
		}
		bodyLen := int(uint32(head[0])<<24 | uint32(head[1])<<16 | uint32(head[2])<<8 | uint32(head[3]))
		sum := uint32(head[4])<<24 | uint32(head[5])<<16 | uint32(head[6])<<8 | uint32(head[7])
		if bodyLen == 0 || bodyLen > maxBody {
			s.m.torn.Inc()
			s.rec.TornRecords++
			break
		}
		if cap(body) < bodyLen {
			body = make([]byte, bodyLen)
		}
		body = body[:bodyLen]
		if _, err := f.ReadAt(body, off+recHeadSize); err != nil {
			s.m.torn.Inc()
			s.rec.TornRecords++
			break
		}
		if crc(body) != sum {
			s.m.torn.Inc()
			s.rec.TornRecords++
			break
		}
		rec, err := decodeBody(body)
		if err != nil {
			s.m.torn.Inc()
			s.rec.TornRecords++
			break
		}
		s.applyRecord(seq, off, rec)
		s.m.replayed.Inc()
		s.rec.Records++
		off += recHeadSize + int64(bodyLen)
	}
	if truncate {
		if st, err := f.Stat(); err == nil && st.Size() > off {
			if err := f.Truncate(off); err != nil {
				return 0, err
			}
		}
	}
	return off, nil
}

// applyRecord replays one decoded record into the index. Records were
// logged only when they applied live, so replay applies them
// unconditionally, in order. Open has exclusive access: no lock needed.
func (s *Store) applyRecord(file uint64, recOff int64, rec record) {
	switch rec.op {
	case opPut:
		s.SetData(rec.key, loc{recOff + recHeadSize + int64(rec.payloadOff), uint32(file), uint32(rec.payloadLen)}, rec.expires)
	case opPointer:
		s.SetPointer(rec.key, store.Ptr{Target: rec.addr, Size: rec.size, Since: rec.since})
	case opDelete:
		s.Drop(rec.key)
	case opRefresh:
		if e, ok := s.Peek(rec.key); ok {
			s.Retime(e, rec.expires)
		}
	}
}

// crc is a local alias so replay reads naturally.
func crc(b []byte) uint32 { return wire.Checksum(b) }

// Dir returns the engine's data directory.
func (s *Store) Dir() string { return s.dir }

// Recovery returns what Open rebuilt from disk.
func (s *Store) Recovery() RecoveryStats { return s.rec }

// --- store.Engine: mutations -------------------------------------------

// getBuf borrows a record encode buffer.
func (s *Store) getBuf() []byte {
	if b, ok := s.encPool.Get().(*[]byte); ok {
		return (*b)[:0]
	}
	return make([]byte, 0, 512)
}

func (s *Store) putBuf(b []byte) {
	if cap(b) > 1<<20 {
		return // don't pin huge payload buffers
	}
	s.encPool.Put(&b)
}

// ErrClosed reports a write to an engine that has been closed.
var ErrClosed = errors.New("disk: store is closed")

// logTx is handed to a logged mutation: its log method appends records to
// the active WAL.
type logTx struct {
	s   *Store
	w   *walWriter // writer and commit sequence of the last record logged
	seq uint64
	err error // first failed append
}

// log appends recs — n framed records back to back — to the active WAL
// with one write, returning the first record's start offset. A failed
// append is counted, kept in tx.err and reported as ok=false.
func (tx *logTx) log(recs []byte, n int) (start int64, ok bool) {
	start, seq, err := tx.s.w.append(recs, n)
	if err != nil {
		tx.s.m.walErrors.Inc()
		if tx.err == nil {
			tx.err = fmt.Errorf("disk: wal append: %w", err)
		}
		return 0, false
	}
	tx.w, tx.seq = tx.s.w, seq
	return start, true
}

// logged is the engine's one write path. Under the write lock, on an open
// store, apply decides whether the mutation takes effect, logs its
// record(s) through tx and changes the index; then — outside the lock —
// buf (the records' encode buffer) is recycled and the caller waits for
// the group commit covering the last record logged. It returns the first
// append or fsync failure, or ErrClosed from a closed store, which runs
// nothing. The single-key mutators drop that error — store.Engine gives
// them no way to return it, and it is counted in
// d2_store_wal_errors_total; PutBatch returns it.
func (s *Store) logged(buf []byte, apply func(tx *logTx)) error {
	tx := logTx{s: s}
	var ckpt bool
	s.mu.Lock()
	if s.closed {
		tx.err = ErrClosed
	} else {
		apply(&tx)
		ckpt = s.checkpointDue()
	}
	s.mu.Unlock()
	s.putBuf(buf)
	if tx.w != nil {
		if err := tx.w.wait(tx.seq); err != nil && tx.err == nil {
			tx.err = fmt.Errorf("disk: wal fsync: %w", err)
		}
		if ckpt {
			s.startCheckpoint()
		}
	}
	return tx.err
}

// Put stores block data, replacing any previous entry. The record is in
// the WAL — and, under FsyncAlways, fsynced — before Put returns; from
// then on the payload is served from the log file at that offset.
func (s *Store) Put(k keys.Key, data []byte, ttl time.Duration, now time.Time) {
	_ = s.PutBatch([]keys.Key{k}, [][]byte{data}, ttl, now)
}

// PutBatch stores a batch of blocks as one step: every record is encoded
// into one buffer, appended to the WAL with one write under one lock
// hold, and covered by one group-commit wait and one checkpoint check —
// where the same blocks put one by one pay each of those per block. The
// records are ordinary opPut records, so a batch torn by a crash replays
// to its intact prefix. A failed append indexes nothing; either failure
// is returned, so the caller can refuse to acknowledge the batch.
func (s *Store) PutBatch(ks []keys.Key, data [][]byte, ttl time.Duration, now time.Time) error {
	if len(ks) != len(data) {
		return fmt.Errorf("disk: PutBatch: %d keys, %d payloads", len(ks), len(data))
	}
	if len(ks) == 0 {
		return nil
	}
	expires := store.Deadline(ttl, now)
	size := 0
	for _, d := range data {
		size += putPayloadOff + len(d)
	}
	recs := s.getBuf()
	if cap(recs) < size {
		recs = make([]byte, 0, size)
	}
	for i, k := range ks {
		recs = appendPut(recs, k, expires, data[i])
	}
	return s.logged(recs, func(tx *logTx) {
		start, ok := tx.log(recs, len(ks))
		if !ok {
			return
		}
		for i, k := range ks {
			s.SetData(k, loc{start + putPayloadOff, uint32(s.w.seq), uint32(len(data[i]))}, expires)
			start += putPayloadOff + int64(len(data[i]))
		}
	})
}

// PutPointer installs a pointer entry unless data is already present.
func (s *Store) PutPointer(k keys.Key, target transport.Addr, size int64, now time.Time) {
	since := now.UnixNano()
	rec := appendPointer(s.getBuf(), k, target, size, since)
	_ = s.logged(rec, func(tx *logTx) {
		if !s.AdmitsPointer(k) {
			return
		}
		if _, ok := tx.log(rec, 1); ok {
			s.SetPointer(k, store.Ptr{Target: target, Size: size, Since: since})
		}
	})
}

// Delete removes the entry under k immediately. The deletion is applied
// to the index even if logging it fails (the node treats deletes as
// infallible); a WAL error is surfaced through d2_store_wal_errors_total.
func (s *Store) Delete(k keys.Key) (had bool) {
	rec := appendDelete(s.getBuf(), k)
	_ = s.logged(rec, func(tx *logTx) {
		if had = s.Drop(k); had {
			tx.log(rec, 1)
		}
	})
	return had
}

// Refresh extends a block's TTL (zero ttl clears it).
func (s *Store) Refresh(k keys.Key, ttl time.Duration, now time.Time) (found bool) {
	expires := store.Deadline(ttl, now)
	rec := appendRefresh(s.getBuf(), k, expires)
	_ = s.logged(rec, func(tx *logTx) {
		var e *entry
		if e, found = s.Peek(k); !found {
			return
		}
		if _, ok := tx.log(rec, 1); ok {
			s.Retime(e, expires)
		}
	})
	return found
}

// SweepExpired removes entries whose TTL passed, returning the count.
// Expired lists the due keys under the read lock; the write lock is held
// to drop them, each after re-checking its deadline (a put since may have
// replaced the entry), and to log the deletes with one append.
func (s *Store) SweepExpired(now time.Time) (n int) {
	due := s.Expired(now.UnixNano())
	recs := s.getBuf()
	_ = s.logged(recs, func(tx *logTx) {
		for _, k := range due {
			if e, ok := s.Peek(k); ok && e.Expires != 0 && e.Expires < now.UnixNano() {
				s.Drop(k)
				recs = appendDelete(recs, k)
				n++
			}
		}
		if n > 0 {
			tx.log(recs, n)
		}
	})
	return n
}

// --- reads ---------------------------------------------------------------
//
// Every read-side store.Engine method is the embedded index's; the engine
// supplies only how a location becomes bytes.

// pread fills buf from the payload at l. Callers hold at least the read
// lock, which keeps the file open: files are closed under the write lock.
func (s *Store) pread(l loc, buf []byte) bool {
	if l.length == 0 {
		return true
	}
	f := s.files[uint64(l.file)]
	if f == nil {
		s.m.readErrors.Inc()
		return false
	}
	if _, err := f.ReadAt(buf, l.off); err != nil {
		s.m.readErrors.Inc()
		return false
	}
	return true
}

// readPayload is the index's payload loader: one pread into a pooled
// buffer, which becomes the caller's (store.Engine's copy contract). A
// failed read returns the buffer to the pool.
func (s *Store) readPayload(l loc) ([]byte, bool) {
	data := wire.Payload(int(l.length))
	if !s.pread(l, data) {
		wire.ReleasePayload(data)
		return nil, false
	}
	return data, true
}

// ReadInto copies the payload of the data entry under k into buf,
// returning the payload length. It is the allocation-free indexed read
// path: the index lookup and the pread reuse the caller's buffer. ok is
// false when k is absent, a pointer entry, or buf is too small (the
// returned length then tells the caller how much room it needs).
func (s *Store) ReadInto(k keys.Key, buf []byte) (int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.Peek(k)
	if _, ptr := s.Pointer(k); !ok || ptr {
		return 0, false
	}
	n := int(e.Payload.length)
	if n > len(buf) {
		return n, false
	}
	if !s.pread(e.Payload, buf[:n]) {
		return 0, false
	}
	return n, true
}

// Flush blocks until every acknowledged write is on stable storage — the
// clean-shutdown barrier, and the only fsync under FsyncNever.
func (s *Store) Flush() error {
	s.mu.RLock()
	w := s.w
	closed := s.closed
	s.mu.RUnlock()
	if closed || w == nil {
		return nil
	}
	return w.flush()
}

// Close flushes and releases the engine. The store must not be used
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	w := s.w
	s.mu.Unlock()

	// Wait out any in-flight checkpoint before tearing files down.
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()

	var err error
	if w != nil {
		err = w.close()
	}
	s.mu.Lock()
	s.closeFiles()
	s.mu.Unlock()
	return err
}

// closeFiles closes every open file handle. Callers hold the write lock
// or have exclusive access.
func (s *Store) closeFiles() {
	for seq, f := range s.files {
		f.Close()
		delete(s.files, seq)
	}
}
