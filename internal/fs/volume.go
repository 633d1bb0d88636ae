package fs

import (
	"bytes"
	"cmp"
	"context"
	"crypto/ed25519"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs"
	"github.com/defragdht/d2/internal/obs/tracing"
)

// BlockService is the DHT interface D2-FS runs on: the put/get/remove of
// D2-Store (§3) and its batched reads. A file is one contiguous key run
// (§4), so a multi-block read is one batch, ~one RPC per owner. Both the
// live cluster client and in-memory test doubles satisfy it.
type BlockService interface {
	Put(ctx context.Context, k keys.Key, data []byte) error
	Get(ctx context.Context, k keys.Key) ([]byte, error)
	Remove(ctx context.Context, k keys.Key) error
	// GetMany returns the found blocks of ks by key. The service has
	// re-resolved and walked the replicas of every key it leaves out, so a
	// hole in the answer is final.
	GetMany(ctx context.Context, ks []keys.Key) (map[keys.Key][]byte, error)
	// GetSegment is GetMany for one streaming-read segment, with the longer
	// patience of a one-pass read racing churn.
	GetSegment(ctx context.Context, ks []keys.Key) (map[keys.Key][]byte, error)
}

// SegmentReader is implemented by block services that read a stream
// segment through a copying sink (the live client's ReadSegment): each
// block found goes to sink, one call at a time, its bytes valid only
// during the call; a key never sunk was not found, after the same
// re-resolve, replica walk and retries as GetSegment. In exchange the
// service reuses its response buffers. Volumes take it for ReadStream's
// segments; any other service is read through GetSegment.
type SegmentReader interface {
	ReadSegment(ctx context.Context, ks []keys.Key, sink func(keys.Key, []byte)) error
}

// BatchPutBlockService is implemented by block services with a batched
// write path (the live client's PutMany): ks and data are parallel, nil
// means every block was acknowledged, and on error the caller treats the
// whole batch as unacknowledged. Sync and WriteStream use it to ship a
// save or a stream batch in ~one RPC (and one fsync) per owner; plain
// BlockServices get one Put per block.
type BatchPutBlockService interface {
	BlockService
	PutMany(ctx context.Context, ks []keys.Key, data [][]byte) error
}

// Options tunes a volume.
type Options struct {
	// WriteBackDelay is the write-back/read cache window (default 30 s,
	// §3). Writes become visible to other readers on Sync or after the
	// background flusher runs (when started with AutoFlush).
	WriteBackDelay time.Duration
	// AutoFlush starts a background flusher; Close stops it. Without it,
	// call Sync explicitly.
	AutoFlush bool
	// Metrics receives the volume's block-IO counters; nil creates a
	// fresh registry (the live client passes its own so one scrape covers
	// fs and DHT activity together).
	Metrics *obs.Registry
	// ReadCacheBytes caps the read cache's retained bytes (default
	// 32 MiB). Streaming reads bypass the cache entirely, so a multi-GB
	// stream cannot evict the hot metadata working set; this cap bounds
	// what the whole-file read path can accumulate.
	ReadCacheBytes int64
}

func (o *Options) applyDefaults() {
	if o.WriteBackDelay == 0 {
		o.WriteBackDelay = 30 * time.Second
	}
	if o.Metrics == nil {
		o.Metrics = obs.New()
	}
	if o.ReadCacheBytes == 0 {
		o.ReadCacheBytes = 32 << 20
	}
}

// Volume is one D2-FS file-system volume: single writer, many readers
// (§3). All methods are safe for concurrent use within the process. Every
// read walks one immutable root state (rootState). A read-only handle's
// reads take no lock, so goroutines sharing one handle do not serialize;
// a writable handle's reads and writes take turns under mu.
type Volume struct {
	svc   BlockService
	volID keys.VolumeID
	name  string
	pub   ed25519.PublicKey
	priv  ed25519.PrivateKey // nil for read-only volumes
	opts  Options

	// mu is the writable handle's lock. It serializes namespace operations
	// (single writer, §3) and the handle's own reads: a read of an older
	// root could otherwise miss a never-synced block that a later write has
	// just dropped from pending (removeBlock). A read-only handle, which has
	// no pending blocks, never takes it.
	mu sync.Mutex
	// state is the root this handle reads: the writer's last commit, or the
	// root a read-only handle last fetched and verified (fetchRoot).
	state atomic.Pointer[rootState]

	// syncMu serializes everything that sends this volume's blocks to the
	// DHT — Sync rounds and WriteStream batches — so a round's root block
	// really is its last write, and a removal and a put of one key can
	// never be on the wire together.
	syncMu sync.Mutex

	// cmu guards the block caches, separately from mu so operations
	// holding mu can perform block IO. pending and removes are the
	// write-back window, and they are disjoint: a key is queued to be
	// written or to be removed, never both (see writeBlock, removeBlock).
	cmu     sync.Mutex
	pending map[keys.Key]pendingBlock
	removes map[keys.Key]struct{}
	// flushing is the batch a running Sync took out of pending: still
	// readable until the Sync returns, since it may not be in the DHT yet.
	flushing map[keys.Key]pendingBlock
	rcache   map[keys.Key]cachedBlock
	// rcacheBytes tracks the read cache's retained payload, enforced
	// against opts.ReadCacheBytes by pruneCacheLocked.
	rcacheBytes int64
	// scan is the directory and entry position of the last ReadFile: a
	// ReadFile of the entry after it is a directory scan (see scanned).
	scan struct {
		dir *dirMeta
		idx int
	}

	stop chan struct{}
	wg   sync.WaitGroup

	metrics volumeMetrics
}

// volumeMetrics counts the volume's block IO against the DHT and its
// write-back caches, plus the streaming pipeline's health counters.
type volumeMetrics struct {
	blocksRead     *obs.Counter // blocks fetched from the DHT
	blocksWritten  *obs.Counter // blocks buffered for write-back
	bytesRead      *obs.Counter
	bytesWritten   *obs.Counter
	cacheHits      *obs.Counter // reads served by pending writes or read cache
	cacheEvictions *obs.Counter // read-cache entries evicted by the byte cap
	removes        *obs.Counter // delayed removals queued (§3)
	syncs          *obs.Counter // Sync rounds run
	syncErrors     *obs.Counter // background flusher Sync rounds that failed
	// A Sync's time by phase: the data PutMany, the root Put, the
	// removal fan-out. Each observed only when its phase had work.
	syncData, syncRoot, syncRemove *obs.Histogram

	// Streaming (ReadStream) pipeline metrics.
	streamOpens    *obs.Counter   // streams opened
	streamSegments *obs.Counter   // prefetch segments issued
	streamBytes    *obs.Counter   // bytes delivered to stream consumers
	streamStalls   *obs.Counter   // reads that blocked on an in-flight segment
	streamWaste    *obs.Counter   // prefetched blocks never consumed
	streamTTFB     *obs.Histogram // open-to-first-byte latency
	streamWindow   *obs.Histogram // window size, once per pipelined stream
	streamBps      *obs.Gauge     // last stream's sustained bytes/s
}

func newVolumeMetrics(reg *obs.Registry) volumeMetrics {
	return volumeMetrics{
		blocksRead:     reg.Counter("d2_fs_blocks_read_total"),
		blocksWritten:  reg.Counter("d2_fs_blocks_written_total"),
		bytesRead:      reg.Counter(`d2_fs_bytes_total{dir="read"}`),
		bytesWritten:   reg.Counter(`d2_fs_bytes_total{dir="written"}`),
		cacheHits:      reg.Counter("d2_fs_cache_hits_total"),
		cacheEvictions: reg.Counter("d2_fs_cache_evictions_total"),
		removes:        reg.Counter("d2_fs_removes_total"),
		syncs:          reg.Counter("d2_fs_syncs_total"),
		syncErrors:     reg.Counter("d2_fs_sync_errors_total"),
		syncData:       reg.Histogram(`d2_fs_sync_phase_ns{phase="data"}`, obs.LatencyBuckets),
		syncRoot:       reg.Histogram(`d2_fs_sync_phase_ns{phase="root"}`, obs.LatencyBuckets),
		syncRemove:     reg.Histogram(`d2_fs_sync_phase_ns{phase="remove"}`, obs.LatencyBuckets),
		streamOpens:    reg.Counter("d2_stream_opens_total"),
		streamSegments: reg.Counter("d2_stream_segments_total"),
		streamBytes:    reg.Counter("d2_stream_bytes_total"),
		streamStalls:   reg.Counter("d2_stream_stalls_total"),
		streamWaste:    reg.Counter("d2_stream_prefetch_waste_total"),
		streamTTFB:     reg.Histogram("d2_stream_ttfb_ns", obs.LatencyBuckets),
		streamWindow:   reg.Histogram("d2_stream_window", obs.CountBuckets),
		streamBps:      reg.Gauge("d2_stream_throughput_bps"),
	}
}

type cachedBlock struct {
	data []byte
	at   time.Time
	// meta is the decoded block when data is an inode block that passed
	// its hash check (see readInode); a walk through a directory adds its
	// entries (see loadDir).
	meta *dirMeta
}

// rootState is one root of the volume: the signed root block, its encoded
// bytes and its decoded root directory. It is never changed once published;
// a new root is a new state. fetchRoot makes one from a root it verified
// under pub; the writer's commits make one from a copy of the last
// (publish).
type rootState struct {
	pub  ed25519.PublicKey
	data []byte
	root *RootBlock
	dir  *dirMeta
}

// rootMemo is the process-wide memo of verified roots, one entry per root
// key, so every handle on a volume shares one check and one root-directory
// decode per distinct root. A hit needs the same publisher key and
// byte-equal bytes; ed25519.Verify's answer depends on nothing else, so the
// memo skips a repeated check and never a fetch. It is cleared when it
// reaches rootMemoCap entries.
var rootMemo struct {
	sync.Mutex
	m map[keys.Key]*rootState
}

const rootMemoCap = 1024

// verifySignature is ed25519.Verify; tests wrap it to count root checks.
var verifySignature = ed25519.Verify

// memoizedRoot returns the memo entry for root key k if it was verified
// under pub from bytes equal to data.
func memoizedRoot(k keys.Key, pub ed25519.PublicKey, data []byte) *rootState {
	rootMemo.Lock()
	m := rootMemo.m[k]
	rootMemo.Unlock()
	if m != nil && m.pub.Equal(pub) && bytes.Equal(m.data, data) {
		return m
	}
	return nil
}

// memoizeRoot records m as root key k's verified root.
func memoizeRoot(k keys.Key, m *rootState) {
	rootMemo.Lock()
	defer rootMemo.Unlock()
	if rootMemo.m == nil || len(rootMemo.m) >= rootMemoCap {
		rootMemo.m = make(map[keys.Key]*rootState)
	}
	rootMemo.m[k] = m
}

// dirMeta is a verified, decoded inode block: its inode and, for a
// directory a walk has read, its entries and a name index over them (index
// is nil until then). An inode block never changes under its key — a new
// version is a new key — so one decode serves every read of it. It is
// shared and never mutated: a walk for a write hands out copies of the
// entries (see walk).
type dirMeta struct {
	hash    [32]byte // content hash of the inode block (zero for the root)
	ino     Inode
	entries []DirEntry
	index   map[string]int
}

func newDirMeta(hash [32]byte, ino Inode, entries []DirEntry) *dirMeta {
	d := &dirMeta{hash: hash, ino: ino, entries: entries, index: make(map[string]int, len(entries))}
	for i := range entries {
		if _, dup := d.index[entries[i].Name]; !dup {
			d.index[entries[i].Name] = i
		}
	}
	return d
}

// pendingBlock is one buffered write. stored marks a key that is also
// believed to be in the DHT already — this write cancelled its queued
// removal — so dropping the write must still remove the block.
type pendingBlock struct {
	data   []byte
	stored bool
}

// SyncError reports a Sync that could not write its whole batch. Keys are
// the blocks not acknowledged; they (and the removals that were to follow)
// are back in the write-back window, and the next Sync sends them again.
type SyncError struct {
	Keys []keys.Key
	Err  error
}

func (e *SyncError) Error() string {
	return fmt.Sprintf("fs: sync: %d blocks not written (first %s): %v", len(e.Keys), e.Keys[0].Short(), e.Err)
}

func (e *SyncError) Unwrap() error { return e.Err }

// VolumeID returns the volume's 20-byte identifier.
func (v *Volume) VolumeID() keys.VolumeID { return v.volID }

// rootKey returns the volume's root block key (block 0, version 0 of the
// empty path — the only in-place-updated block, §3).
func (v *Volume) rootKey() keys.Key {
	return keys.Encode(v.volID, keys.PathCode{}, 0, 0)
}

// Create writes a fresh volume with an empty root directory and returns a
// writable handle. The volume ID derives from the publisher key and name.
func Create(ctx context.Context, svc BlockService, name string, priv ed25519.PrivateKey, opts Options) (*Volume, error) {
	pub := priv.Public().(ed25519.PublicKey)
	v := newVolume(svc, name, pub, priv, opts)
	data, err := v.publish(&RootBlock{
		Name:      name,
		PublicKey: pub,
		Version:   1,
		Root:      Inode{IsDir: true, NextSlot: 1},
	}, nil)
	if err != nil {
		return nil, err
	}
	if err := svc.Put(ctx, v.rootKey(), data); err != nil {
		return nil, fmt.Errorf("fs: create volume %q: %w", name, err)
	}
	v.startFlusher()
	return v, nil
}

// Open attaches to an existing volume. priv may be nil for read-only
// access; the root signature is verified against pub.
func Open(ctx context.Context, svc BlockService, name string, pub ed25519.PublicKey, priv ed25519.PrivateKey, opts Options) (*Volume, error) {
	v := newVolume(svc, name, pub, priv, opts)
	if _, err := v.fetchRoot(ctx); err != nil {
		return nil, err
	}
	v.startFlusher()
	return v, nil
}

// newVolume returns a handle on volume name of publisher pub, with empty
// caches and no root yet.
func newVolume(svc BlockService, name string, pub ed25519.PublicKey, priv ed25519.PrivateKey, opts Options) *Volume {
	opts.applyDefaults()
	return &Volume{
		svc:     svc,
		volID:   keys.NewVolumeID(pub, name),
		name:    name,
		pub:     pub,
		priv:    priv,
		opts:    opts,
		pending: make(map[keys.Key]pendingBlock),
		removes: make(map[keys.Key]struct{}),
		rcache:  make(map[keys.Key]cachedBlock),
		stop:    make(chan struct{}),
		metrics: newVolumeMetrics(opts.Metrics),
	}
}

func (v *Volume) startFlusher() {
	if !v.opts.AutoFlush {
		return
	}
	v.wg.Add(1)
	go func() {
		defer v.wg.Done()
		t := time.NewTicker(v.opts.WriteBackDelay)
		defer t.Stop()
		for {
			select {
			case <-v.stop:
				return
			case <-t.C:
				// A failed round is requeued for the next one; count it
				// so an operator sees writes that are not leaving.
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				if err := v.Sync(ctx); err != nil {
					v.metrics.syncErrors.Inc()
				}
				cancel()
			}
		}
	}()
}

// Close flushes pending writes and stops the background flusher.
func (v *Volume) Close(ctx context.Context) error {
	select {
	case <-v.stop:
	default:
		close(v.stop)
	}
	v.wg.Wait()
	return v.Sync(ctx)
}

// publish signs root, whose root directory holds entries, makes it the
// handle's state and returns its encoded bytes (writer only). root is the
// writer's own new block: a published one is never written again.
func (v *Volume) publish(root *RootBlock, entries []DirEntry) ([]byte, error) {
	payload, err := root.signablePayload()
	if err != nil {
		return nil, err
	}
	root.Signature = ed25519.Sign(v.priv, payload)
	data := encodeRoot(root)
	v.state.Store(&rootState{pub: v.pub, data: data, root: root, dir: newDirMeta([32]byte{}, root.Root, entries)})
	return data, nil
}

// fetchRoot reads the root block, verifies it against v.pub, decodes its
// root directory and makes it the handle's state: the one place a handle
// adopts a root from the ring. Bytes equal to a root this process already
// verified under v.pub return that state again (the handle's last one,
// else rootMemo's): the same bytes carry the same signature, so the decode
// and the check run once per distinct root, not once per call or per
// handle. Any other bytes are decoded and checked in full. The comparison
// is by content, against a private copy, so a block changed in place under
// a cached slice is checked again too.
func (v *Volume) fetchRoot(ctx context.Context) (*rootState, error) {
	k := v.rootKey()
	data, err := v.readBlock(ctx, k)
	if err != nil {
		return nil, fmt.Errorf("fs: open volume %q: %w", v.name, err)
	}
	if last := v.state.Load(); last != nil && bytes.Equal(last.data, data) {
		return last, nil
	}
	st := memoizedRoot(k, v.pub, data)
	if st == nil {
		root, err := decodeRoot(data)
		if err != nil {
			return nil, err
		}
		payload, err := root.signablePayload()
		if err != nil {
			return nil, err
		}
		if !verifySignature(v.pub, payload, root.Signature) {
			return nil, ErrBadSig
		}
		entries, err := v.loadEntries(ctx, newCursor(v.volID), &root.Root)
		if err != nil {
			return nil, err
		}
		st = &rootState{pub: bytes.Clone(v.pub), data: bytes.Clone(data), root: &root, dir: newDirMeta([32]byte{}, root.Root, entries)}
		memoizeRoot(k, st)
	}
	v.state.Store(st)
	return st, nil
}

// beginRead starts a read and returns the root it walks. A writable handle
// takes v.mu and reads its own last commit; a read-only handle takes no
// lock and reads the root in the ring (fetchRoot). A read that began
// without error ends with endRead.
func (v *Volume) beginRead(ctx context.Context) (*rootState, error) {
	if v.priv == nil {
		return v.fetchRoot(ctx)
	}
	v.mu.Lock()
	return v.state.Load(), nil
}

// endRead ends a read beginRead started.
func (v *Volume) endRead() {
	if v.priv != nil {
		v.mu.Unlock()
	}
}

// --- block IO with write-back and read caching ---

// readBlock fetches a block: pending writes win, then the 30 s read
// cache, then the DHT.
func (v *Volume) readBlock(ctx context.Context, k keys.Key) ([]byte, error) {
	if data, ok := v.cachedRead(k); ok {
		v.metrics.cacheHits.Inc()
		return data, nil
	}
	data, err := v.svc.Get(ctx, k)
	if err != nil {
		return nil, err
	}
	v.countFetched(data)
	v.cacheRead(k, data)
	return data, nil
}

// countFetched counts a block fetched from the DHT.
func (v *Volume) countFetched(data []byte) {
	v.metrics.blocksRead.Inc()
	v.metrics.bytesRead.Add(uint64(len(data)))
}

// cachedRead checks pending writes and the read cache for a block.
func (v *Volume) cachedRead(k keys.Key) ([]byte, bool) {
	v.cmu.Lock()
	defer v.cmu.Unlock()
	if p, ok := v.pending[k]; ok {
		return p.data, true
	}
	if p, ok := v.flushing[k]; ok {
		return p.data, true
	}
	if c, ok := v.rcache[k]; ok && time.Since(c.at) < v.opts.WriteBackDelay {
		return c.data, true
	}
	return nil, false
}

// cacheRead records a fetched block in the read cache.
func (v *Volume) cacheRead(k keys.Key, data []byte) {
	v.cmu.Lock()
	defer v.cmu.Unlock()
	v.cacheStoreLocked(k, data)
}

// cacheStoreLocked inserts or replaces a read-cache entry, keeping the
// byte accounting exact across replacements and the cache under its caps
// — on writes as on reads, so a writer that never reads stays bounded too.
func (v *Volume) cacheStoreLocked(k keys.Key, data []byte) {
	if prev, ok := v.rcache[k]; ok {
		v.rcacheBytes -= int64(len(prev.data))
	}
	v.rcache[k] = cachedBlock{data: data, at: time.Now()}
	v.rcacheBytes += int64(len(data))
	if len(v.rcache) > rcacheMaxEntries || v.rcacheBytes > v.opts.ReadCacheBytes {
		v.pruneCacheLocked()
	}
}

// rcacheMaxEntries caps the read cache's entry count: small metadata
// blocks would otherwise reach the byte cap only after hundreds of
// thousands of entries.
const rcacheMaxEntries = 4096

// pruneCacheLocked evicts expired read-cache entries, then — if the
// cache still exceeds its byte or entry cap — the oldest live entries
// until it fits in 3/4 of both (hysteresis so a hot cache is not pruned
// on every insert).
func (v *Volume) pruneCacheLocked() {
	cutoff := time.Now().Add(-v.opts.WriteBackDelay)
	for k, c := range v.rcache {
		if c.at.Before(cutoff) {
			v.rcacheBytes -= int64(len(c.data))
			v.metrics.cacheEvictions.Inc()
			delete(v.rcache, k)
		}
	}
	if v.rcacheBytes <= v.opts.ReadCacheBytes && len(v.rcache) <= rcacheMaxEntries {
		return
	}
	type aged struct {
		k  keys.Key
		at time.Time
	}
	order := make([]aged, 0, len(v.rcache))
	for k, c := range v.rcache {
		order = append(order, aged{k: k, at: c.at})
	}
	sort.Slice(order, func(i, j int) bool { return order[i].at.Before(order[j].at) })
	for _, a := range order {
		if v.rcacheBytes <= v.opts.ReadCacheBytes*3/4 && len(v.rcache) <= rcacheMaxEntries*3/4 {
			break
		}
		v.rcacheBytes -= int64(len(v.rcache[a.k].data))
		v.metrics.cacheEvictions.Inc()
		delete(v.rcache, a.k)
	}
}

// writeBlock buffers a block write. A write of a key queued for removal
// cancels the removal: same key, so the writer is keeping that block (a
// rewrite's unchanged blocks come back under their old keys). cache also
// keeps the block in the read cache past its Sync — directory metadata,
// which the writer's next path walk reads again; a file's inode and data
// are served from the window until they are synced and from the DHT
// afterwards, so a bulk writer does not push the directories it is
// working in out of the cache.
func (v *Volume) writeBlock(k keys.Key, data []byte, cache bool) {
	v.metrics.blocksWritten.Inc()
	v.metrics.bytesWritten.Add(uint64(len(data)))
	v.cmu.Lock()
	defer v.cmu.Unlock()
	_, stored := v.removes[k]
	delete(v.removes, k)
	v.pending[k] = pendingBlock{data: data, stored: stored || v.pending[k].stored}
	if cache {
		v.cacheStoreLocked(k, data)
	}
}

// removeBlock queues a delayed removal (issued at the Sync after the
// write-back window, so stale readers finish first, §3). A block that
// only ever existed in the window is simply dropped from it: nobody else
// can have seen it, so a save writes each ancestor directory once, not
// once per file saved under it.
func (v *Volume) removeBlock(k keys.Key) {
	v.cmu.Lock()
	defer v.cmu.Unlock()
	if c, ok := v.rcache[k]; ok {
		// Nothing the writer still references leads here.
		v.rcacheBytes -= int64(len(c.data))
		delete(v.rcache, k)
	}
	if p, ok := v.pending[k]; ok {
		delete(v.pending, k)
		if !p.stored {
			return
		}
	}
	v.metrics.removes.Inc()
	v.removes[k] = struct{}{}
}

// sortedKeys returns a key set in key order.
func sortedKeys[V any](m map[keys.Key]V) []keys.Key {
	ks := make([]keys.Key, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].Less(ks[j]) })
	return ks
}

// putBlocks sends blocks to the DHT: as one PutMany when the service has
// it, else one Put per block in order. It returns how many leading blocks
// are known to be stored when it fails.
func (v *Volume) putBlocks(ctx context.Context, ks []keys.Key, data [][]byte) (int, error) {
	if len(ks) == 0 {
		return 0, nil
	}
	if batch, ok := v.svc.(BatchPutBlockService); ok {
		if err := batch.PutMany(ctx, ks, data); err != nil {
			return 0, err
		}
		return len(ks), nil
	}
	for i, k := range ks {
		if err := v.svc.Put(ctx, k, data[i]); err != nil {
			return i, fmt.Errorf("put %s: %w", k.Short(), err)
		}
	}
	return len(ks), nil
}

// shipBlocks sends blocks straight to the DHT, past the write-back window
// (the stream writer's path). A queued removal of a shipped key is
// cancelled first, as writeBlock would.
func (v *Volume) shipBlocks(ctx context.Context, ks []keys.Key, data [][]byte) error {
	v.syncMu.Lock()
	defer v.syncMu.Unlock()
	v.cmu.Lock()
	for _, k := range ks {
		delete(v.removes, k)
	}
	v.cmu.Unlock()
	_, err := v.putBlocks(ctx, ks, data)
	return err
}

// Sync flushes the write-back window in three steps: every buffered block
// except the root (in key order, which keeps contiguous ranges contiguous
// on the wire, as one batch when the service takes batches), then the
// signed root block on its own — so whatever interrupts a Sync, a
// published root never references a block that was not written — then
// the queued removals. When a step fails, what was not sent goes back
// into the window (never over a newer write of the same key) and a
// *SyncError names the unwritten blocks; of the removals, only those that
// failed go back, and the error names the first.
func (v *Volume) Sync(ctx context.Context) error {
	v.syncMu.Lock()
	defer v.syncMu.Unlock()
	v.metrics.syncs.Inc()
	v.cmu.Lock()
	pending, removes := v.pending, v.removes
	v.pending = make(map[keys.Key]pendingBlock)
	v.removes = make(map[keys.Key]struct{})
	v.flushing = pending
	v.cmu.Unlock()
	defer func() {
		v.cmu.Lock()
		v.flushing = nil
		v.cmu.Unlock()
	}()

	rootKey := v.rootKey()
	root, hasRoot := pending[rootKey]
	ks := sortedKeys(pending)
	if hasRoot {
		// The root sorts first within its volume; it goes last, alone.
		i := sort.Search(len(ks), func(i int) bool { return !ks[i].Less(rootKey) })
		ks = append(ks[:i], ks[i+1:]...)
	}
	data := make([][]byte, len(ks))
	for i, k := range ks {
		data[i] = pending[k].data
	}
	rm := sortedKeys(removes)

	start := time.Now()
	sent, err := v.putBlocks(ctx, ks, data)
	if len(ks) > 0 {
		v.metrics.syncData.Observe(int64(time.Since(start)))
	}
	if err == nil && hasRoot {
		start = time.Now()
		if err = v.svc.Put(ctx, rootKey, root.data); err != nil {
			err = fmt.Errorf("put root: %w", err)
		} else {
			hasRoot = false
		}
		v.metrics.syncRoot.Observe(int64(time.Since(start)))
	}
	if err != nil {
		unsent := ks[sent:]
		if hasRoot {
			unsent = append(unsent, rootKey)
		}
		v.requeue(pending, unsent, rm)
		return &SyncError{Keys: unsent, Err: err}
	}
	// At most 16 removals in flight: each waits on its holders' log write
	// of the deadline, which sent one at a time a save would pay in turn.
	start = time.Now()
	errs := make([]error, len(rm))
	sem := make(chan struct{}, 16)
	var wg sync.WaitGroup
	for i, k := range rm {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = v.svc.Remove(ctx, k)
			<-sem
		}()
	}
	wg.Wait()
	if len(rm) > 0 {
		v.metrics.syncRemove.Observe(int64(time.Since(start)))
	}
	var failed []keys.Key
	for i, e := range errs {
		if e != nil {
			failed, err = append(failed, rm[i]), cmp.Or(err, e)
		}
	}
	if err != nil {
		v.requeue(nil, nil, failed)
		return fmt.Errorf("fs: sync remove %s: %w", failed[0].Short(), err)
	}
	return nil
}

// requeue puts what a failed Sync did not send back into the write-back
// window, keeping it disjoint: a newer write of a key wins over the old
// write and over the old removal (the block is in the DHT, so the write is
// marked stored), and a key removed since is not written again.
func (v *Volume) requeue(from map[keys.Key]pendingBlock, puts, removes []keys.Key) {
	v.cmu.Lock()
	defer v.cmu.Unlock()
	for _, k := range puts {
		_, newer := v.pending[k]
		_, removed := v.removes[k]
		if !newer && !removed {
			v.pending[k] = from[k]
		}
	}
	for _, k := range removes {
		if p, rewritten := v.pending[k]; rewritten {
			p.stored = true
			v.pending[k] = p
		} else {
			v.removes[k] = struct{}{}
		}
	}
}

// --- path resolution ---

// splitPath normalizes a slash path into components.
func splitPath(path string) []string {
	parts := strings.Split(path, "/")
	out := parts[:0]
	for _, p := range parts {
		if p != "" && p != "." {
			out = append(out, p)
		}
	}
	return out
}

// step is one directory on a resolution chain.
type step struct {
	cur     pathCursor
	ino     Inode
	entries []DirEntry
	// entryIdx is this directory's index within its parent's entries
	// (-1 for the root).
	entryIdx int
	// shared is the decoded directory the step was read from. Its name
	// index maps names to positions in entries as walked; writers look
	// names up before they change entries.
	shared *dirMeta
}

// find returns the position of name in the directory's entries, or -1.
func (s *step) find(name string) int {
	if i, ok := s.shared.index[name]; ok {
		return i
	}
	return -1
}

// walk resolves the directory chain for the given components from root
// state st, loading entries at every level. It returns the chain of
// directories; comps must all be directories. The entries of a read walk
// are the shared decoded directories; write asks for private copies the
// caller may change.
func (v *Volume) walk(ctx context.Context, st *rootState, comps []string, write bool) ([]step, error) {
	chain := make([]step, 1, len(comps)+1)
	chain[0] = step{cur: newCursor(v.volID), ino: st.root.Root, entries: st.dir.entries, entryIdx: -1, shared: st.dir}
	for _, name := range comps {
		last := &chain[len(chain)-1]
		idx := last.find(name)
		if idx < 0 {
			return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
		}
		e := &last.entries[idx]
		if !e.IsDir {
			return nil, fmt.Errorf("%w: %s", ErrNotDir, name)
		}
		childCur := last.cur.child(e, name)
		dir, err := v.loadDir(ctx, childCur, e)
		if err != nil {
			return nil, err
		}
		chain = append(chain, step{
			cur: childCur, ino: dir.ino, entries: dir.entries, entryIdx: idx, shared: dir,
		})
	}
	if write {
		for i := range chain {
			chain[i].entries = slices.Clone(chain[i].entries)
		}
	}
	return chain, nil
}

// loadDir returns the decoded directory whose inode block e names. The
// read-cache entry holding that block keeps the decode (see readInode), so
// it is evicted with the block; the first walk through the directory adds
// its entries.
func (v *Volume) loadDir(ctx context.Context, cur pathCursor, e *DirEntry) (*dirMeta, error) {
	k := cur.blockKey(0, e.Ver)
	m, err := v.readInode(ctx, k, e.Hash)
	if err != nil || m.index != nil {
		return m, err
	}
	entries, err := v.loadEntries(ctx, cur, &m.ino)
	if err != nil {
		return nil, err
	}
	dir := newDirMeta(e.Hash, m.ino, entries)
	v.keep(k, dir)
	return dir, nil
}

// keep attaches a decoded inode block to the read-cache entry holding
// block k, if the cache still holds it.
func (v *Volume) keep(k keys.Key, m *dirMeta) {
	v.cmu.Lock()
	defer v.cmu.Unlock()
	if c, ok := v.rcache[k]; ok {
		c.meta = m
		v.rcache[k] = c
	}
}

// readInode fetches inode block k and checks it against its parent
// entry's hash before decoding it. The decode is kept on the block's
// read-cache entry under that hash, so each inode is checked once.
func (v *Volume) readInode(ctx context.Context, k keys.Key, hash [32]byte) (*dirMeta, error) {
	if m, ok := v.cachedInode(k, hash); ok {
		v.metrics.cacheHits.Inc()
		return m, nil
	}
	data, err := v.readBlock(ctx, k)
	if err != nil {
		return nil, err
	}
	return v.checkInode(k, hash, data)
}

// cachedInode returns inode block k, checked against hash and decoded, if a
// cache holds it: the decode kept on its read-cache entry, else the cached
// bytes, checked and decoded now. It reports false for a block no cache
// holds and for one that fails its check.
func (v *Volume) cachedInode(k keys.Key, hash [32]byte) (*dirMeta, bool) {
	v.cmu.Lock()
	c, ok := v.rcache[k]
	v.cmu.Unlock()
	if ok && c.meta != nil && c.meta.hash == hash && time.Since(c.at) < v.opts.WriteBackDelay {
		return c.meta, true
	}
	data, ok := v.cachedRead(k)
	if !ok {
		return nil, false
	}
	m, err := v.checkInode(k, hash, data)
	return m, err == nil
}

// checkInode checks inode block k's bytes against hash, decodes them and
// keeps the decode on the block's read-cache entry.
func (v *Volume) checkInode(k keys.Key, hash [32]byte, data []byte) (*dirMeta, error) {
	if contentHash(data) != hash {
		return nil, fmt.Errorf("%w: inode", ErrIntegrity)
	}
	ino, err := decodeInode(data)
	if err != nil {
		return nil, err
	}
	m := &dirMeta{hash: hash, ino: ino}
	v.keep(k, m)
	return m, nil
}

// readAheadInodes caps the inode blocks one directory readahead fetches.
const readAheadInodes = 64

// readAhead fills the read cache for a file inode no cache holds: block k,
// which names entry idx of dir, is fetched in one GetMany together with
// the inodes of up to readAheadInodes-1 following file entries not cached
// yet. A directory's entries take slots in order, so these keys run on in
// key order, and §4 places the run on one owner in almost every case.
// The blocks enter the cache unverified (see prefetch): readInode checks
// each against its entry's hash when a read uses it.
func (v *Volume) readAhead(ctx context.Context, dir *step, idx int, k keys.Key) {
	ks := []keys.Key{k}
	for i := idx + 1; i < len(dir.entries) && len(ks) < readAheadInodes; i++ {
		e := &dir.entries[i]
		if e.IsDir {
			continue
		}
		ek := dir.cur.child(e, e.Name).blockKey(0, e.Ver)
		if _, cached := v.cachedRead(ek); !cached {
			ks = append(ks, ek)
		}
	}
	if len(ks) > 1 {
		v.prefetch(ctx, ks)
	}
}

// scanned records entry idx of dir as the last ReadFile's and reports
// whether it is the entry after the previous one's: a directory scan.
func (v *Volume) scanned(dir *dirMeta, idx int) bool {
	v.cmu.Lock()
	defer v.cmu.Unlock()
	next := dir == v.scan.dir && idx == v.scan.idx+1
	v.scan.dir, v.scan.idx = dir, idx
	return next
}

// readAheadContent serves a directory scan (see scanned). When the file's
// content misses the caches, its missing blocks go out in one GetMany with
// the content blocks of the following file entries, whole files only, up
// to SegmentBlocks keys in all. A following entry counts only if its inode
// is cached and matches its entry's hash; the scan stops at the first one
// that does not. Those inodes are checked and decoded here, once (see
// cachedInode). The content blocks enter the cache unverified (see
// prefetch): fetchBlocks checks each when a read uses it. ReadStream never
// comes here, so a stream's open costs what it did.
func (v *Volume) readAheadContent(ctx context.Context, f *fileRef) {
	ks := v.missingBlocks(f.cur, &f.ino, nil)
	own := len(ks)
	if own == 0 || own >= SegmentBlocks {
		return
	}
	for i := f.idx + 1; i < len(f.dir.entries); i++ {
		e := &f.dir.entries[i]
		if e.IsDir {
			continue
		}
		cur := f.dir.cur.child(e, e.Name)
		m, ok := v.cachedInode(cur.blockKey(0, e.Ver), e.Hash)
		if !ok {
			break
		}
		n := len(ks)
		if ks = v.missingBlocks(cur, &m.ino, ks); len(ks) > SegmentBlocks {
			ks = ks[:n]
			break
		}
	}
	if len(ks) > own {
		v.prefetch(ctx, ks)
	}
}

// missingBlocks appends to ks the keys of the file's content blocks that no
// cache holds.
func (v *Volume) missingBlocks(cur pathCursor, ino *Inode, ks []keys.Key) []keys.Key {
	for i, ver := range ino.BlockVers {
		k := cur.blockKey(uint64(i+1), ver)
		if _, ok := v.cachedRead(k); !ok {
			ks = append(ks, k)
		}
	}
	return ks
}

// prefetch fetches ks with one GetMany into the read cache, unverified:
// every read that uses one of the blocks checks it against the hash its
// parent names. A failed batch is ignored; the reads fetch what they miss.
func (v *Volume) prefetch(ctx context.Context, ks []keys.Key) {
	got, err := v.svc.GetMany(ctx, ks)
	if err != nil {
		return
	}
	for _, k := range ks {
		if data, ok := got[k]; ok {
			v.countFetched(data)
			v.cacheRead(k, data)
		}
	}
}

// readContent returns a file or directory's full content bytes. Under a
// trace the assembly is one fs.assemble span: block count in, integrity-
// checked bytes out.
func (v *Volume) readContent(ctx context.Context, cur pathCursor, ino *Inode) ([]byte, error) {
	if ino.Size == 0 {
		return nil, nil
	}
	if len(ino.Inline) > 0 || len(ino.BlockVers) == 0 {
		return ino.Inline, nil
	}
	ctx, sp := tracing.ChildSpan(ctx, "fs.assemble")
	if sp != nil {
		sp.Annotate("blocks", len(ino.BlockVers), "bytes", ino.Size)
	}
	blks := make([][]byte, len(ino.BlockVers))
	err := v.fetchBlocks(ctx, cur, ino, func(i int, data []byte) { blks[i] = data })
	sp.EndErr(err)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, ino.Size)
	for _, data := range blks {
		out = append(out, data...)
	}
	return out, nil
}

// fetchBlocks reads all of a file's content blocks for a whole-file read.
// Each block is checked against the inode's hash and handed to sink with
// its block index: first the blocks the caches hold (cachedBlocks), then
// the rest — a single block with one Get, more with one GetMany — which
// enter the read cache. A file's blocks form one contiguous key run (§4),
// so the batch usually costs one RPC per owner. A hole in a batch answer is
// final: the service has already walked the replicas and retried. Stream
// segments take fetchSegment instead, so that sink, called only from here,
// stays on the caller's stack.
func (v *Volume) fetchBlocks(ctx context.Context, cur pathCursor, ino *Inode, sink func(i int, data []byte)) error {
	need, pos, err := v.cachedBlocks(cur, ino, 0, len(ino.BlockVers), sink)
	if err != nil || len(need) == 0 {
		return err
	}
	fetched := func(j int, data []byte) error {
		v.countFetched(data)
		v.cacheRead(need[j], data)
		if err := checkBlock(ino, pos[j], data); err != nil {
			return err
		}
		sink(pos[j], data)
		return nil
	}
	if len(need) == 1 {
		data, err := v.svc.Get(ctx, need[0])
		if err != nil {
			return fmt.Errorf("fs: block %d: %w", pos[0]+1, err)
		}
		return fetched(0, data)
	}
	got, err := v.svc.GetMany(ctx, need)
	if err != nil {
		return err
	}
	for j, k := range need {
		data, ok := got[k]
		if !ok {
			return fmt.Errorf("fs: block %d: not found", pos[j]+1)
		}
		if err := fetched(j, data); err != nil {
			return err
		}
	}
	return nil
}

// fetchSegment reads content blocks [start, end) of a file for a stream
// segment: the cached ones as fetchBlocks does, the rest as one segment
// read — the service's ReadSegment or, for a service without one,
// GetSegment, whose answer goes through the same sink in key order — with
// its longer patience for reads racing churn. Fetched blocks do NOT enter
// the read cache — a multi-GB stream must not evict the hot metadata
// working set (§3's cache exists for repeat reads, not one-pass scans) —
// and their bytes are valid only during their sink call, so sink must copy
// what it keeps. The read fails at the first block, in file order, that
// was missing or failed its check.
func (v *Volume) fetchSegment(ctx context.Context, cur pathCursor, ino *Inode, start, end int, sink func(i int, data []byte)) error {
	need, pos, err := v.cachedBlocks(cur, ino, start, end, sink)
	if err != nil || len(need) == 0 {
		return err
	}
	got := make([]bool, len(need))
	errs := make([]error, len(need))
	fetched := func(k keys.Key, data []byte) {
		// A segment is at most SegmentBlocks keys: a scan finds k sooner
		// than a map is built.
		if j := slices.Index(need, k); j >= 0 {
			got[j] = true
			v.countFetched(data)
			if errs[j] = checkBlock(ino, pos[j], data); errs[j] == nil {
				sink(pos[j], data)
			}
		}
	}
	if sr, ok := v.svc.(SegmentReader); ok {
		err = sr.ReadSegment(ctx, need, fetched)
	} else {
		var answer map[keys.Key][]byte
		answer, err = v.svc.GetSegment(ctx, need)
		for _, k := range need {
			if data, ok := answer[k]; ok {
				fetched(k, data)
			}
		}
	}
	if err != nil {
		return err
	}
	for j := range need {
		if !got[j] {
			return fmt.Errorf("fs: block %d: not found", pos[j]+1)
		}
		if errs[j] != nil {
			return errs[j]
		}
	}
	return nil
}

// cachedBlocks hands sink the content blocks [start, end) of a file that
// the write-back window or the read cache holds (read-your-writes), each
// checked against the inode's hash, and returns the keys of the others
// with their block indexes.
func (v *Volume) cachedBlocks(cur pathCursor, ino *Inode, start, end int, sink func(i int, data []byte)) (need []keys.Key, pos []int, err error) {
	for i := start; i < end; i++ {
		k := cur.blockKey(uint64(i+1), ino.BlockVers[i])
		data, ok := v.cachedRead(k)
		if !ok {
			need = append(need, k)
			pos = append(pos, i)
			continue
		}
		v.metrics.cacheHits.Inc()
		if err := checkBlock(ino, i, data); err != nil {
			return nil, nil, err
		}
		sink(i, data)
	}
	return need, pos, nil
}

// checkBlock checks content block i of a file against its inode's hash.
func checkBlock(ino *Inode, i int, data []byte) error {
	if contentHash(data) != ino.BlockHashes[i] {
		return fmt.Errorf("%w: block %d", ErrIntegrity, i+1)
	}
	return nil
}

// loadEntries decodes a directory's entry list.
func (v *Volume) loadEntries(ctx context.Context, cur pathCursor, ino *Inode) ([]DirEntry, error) {
	if !ino.IsDir {
		return nil, ErrNotDir
	}
	content, err := v.readContent(ctx, cur, ino)
	if err != nil {
		return nil, err
	}
	if len(content) == 0 {
		return nil, nil
	}
	return decodeEntries(content)
}

// writeContent writes content blocks for a file or directory, queuing
// removals of the previous version's blocks, and fills the inode's
// content fields. v.mu is held.
func (v *Volume) writeContent(cur pathCursor, data []byte, old *Inode, ino *Inode) {
	// Queue removal of superseded content blocks.
	if old != nil {
		for i, ver := range old.BlockVers {
			v.removeBlock(cur.blockKey(uint64(i+1), ver))
		}
	}
	ino.Size = int64(len(data))
	ino.Inline = nil
	ino.BlockVers = nil
	ino.BlockHashes = nil
	if len(data) <= InlineMax {
		// Small content lives in the metadata block itself (§3).
		ino.Inline = append([]byte{}, data...)
		return
	}
	for off := 0; off < len(data); off += BlockSize {
		end := off + BlockSize
		if end > len(data) {
			end = len(data)
		}
		blk := data[off:end]
		h := contentHash(blk)
		ver := versionHash(h)
		ino.BlockVers = append(ino.BlockVers, ver)
		ino.BlockHashes = append(ino.BlockHashes, h)
		v.writeBlock(cur.blockKey(uint64(off/BlockSize+1), ver), blk, ino.IsDir)
	}
}

// writeInode serializes an inode, queues the block write, removes the old
// version, and returns the new version hash and content hash. v.mu is
// held.
func (v *Volume) writeInode(cur pathCursor, ino *Inode, oldVer uint32) (uint32, [32]byte) {
	data := encodeInode(ino)
	h := contentHash(data)
	ver := versionHash(h)
	if oldVer != 0 {
		v.removeBlock(cur.blockKey(0, oldVer))
	}
	v.writeBlock(cur.blockKey(0, ver), data, ino.IsDir)
	return ver, h
}

// commitChain writes the modified directory chain, walked from root state
// st, bottom-up: each dir's entries are re-encoded, its inode rewritten,
// and its parent's entry updated; finally a copy of st's root block takes
// the new root directory and the next version and is signed, published and
// written in place of the root key (§3: every write updates all metadata
// blocks along the path to the root). v.mu is held.
func (v *Volume) commitChain(st *rootState, chain []step) error {
	for i := len(chain) - 1; i >= 1; i-- {
		s := &chain[i]
		content := encodeEntries(s.entries)
		oldIno := s.ino
		v.writeContent(s.cur, content, &oldIno, &s.ino)
		oldVer := chain[i-1].entries[s.entryIdx].Ver
		ver, hash := v.writeInode(s.cur, &s.ino, oldVer)
		// The next walk starts from what was just written rather than
		// decoding it again; s.entries is this walk's own copy and is
		// final from here on.
		v.keep(s.cur.blockKey(0, ver), newDirMeta(hash, s.ino, s.entries))
		parentEntry := &chain[i-1].entries[s.entryIdx]
		parentEntry.Ver = ver
		parentEntry.Hash = hash
		parentEntry.Size = s.ino.Size
	}
	// Root directory: entries embed in the root block's inode content.
	rootStep := &chain[0]
	v.writeContent(rootStep.cur, encodeEntries(rootStep.entries), &st.root.Root, &rootStep.ino)
	root := *st.root
	root.Root = rootStep.ino
	root.Version++
	data, err := v.publish(&root, rootStep.entries)
	if err != nil {
		return err
	}
	v.writeBlock(v.rootKey(), data, true)
	return nil
}
