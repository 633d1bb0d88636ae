package fs

import (
	"context"
	"crypto/ed25519"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs"
	"github.com/defragdht/d2/internal/obs/tracing"
	"github.com/defragdht/d2/internal/placement"
)

// BlockService is the DHT interface D2-FS runs on: the put/get/remove of
// D2-Store (§3). Both the live cluster client and in-memory test doubles
// satisfy it.
type BlockService interface {
	Put(ctx context.Context, k keys.Key, data []byte) error
	Get(ctx context.Context, k keys.Key) ([]byte, error)
	Remove(ctx context.Context, k keys.Key) error
}

// BatchBlockService is implemented by block services with a batched read
// path (the live client's GetMany). Multi-block file reads use it to
// fetch a file's whole key run in ~one RPC per owner instead of one per
// block; plain BlockServices keep the sequential path.
type BatchBlockService interface {
	BlockService
	GetMany(ctx context.Context, ks []keys.Key) (map[keys.Key][]byte, error)
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
// (§3). All methods are safe for concurrent use within the process.
type Volume struct {
	svc   BlockService
	volID keys.VolumeID
	name  string
	pub   ed25519.PublicKey
	priv  ed25519.PrivateKey // nil for read-only volumes
	opts  Options

	// mu serializes namespace operations (single-writer volumes, §3).
	mu   sync.Mutex
	root *RootBlock // writer: authoritative copy

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

	// Streaming (ReadStream) pipeline metrics.
	streamOpens    *obs.Counter   // streams opened
	streamSegments *obs.Counter   // prefetch segments issued
	streamBytes    *obs.Counter   // bytes delivered to stream consumers
	streamStalls   *obs.Counter   // reads that blocked on an in-flight segment
	streamWaste    *obs.Counter   // prefetched blocks never consumed
	streamTTFB     *obs.Histogram // open-to-first-byte latency
	streamWindow   *obs.Histogram // adaptive window sizes observed
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

// Keyer returns a placement keyer addressing this volume's path space
// directly (used by trace replay and benchmarks; regular access goes
// through the Volume API).
func (v *Volume) Keyer() placement.Keyer { return placement.NewNamespace(v.volID) }

// rootKey returns the volume's root block key (block 0, version 0 of the
// empty path — the only in-place-updated block, §3).
func (v *Volume) rootKey() keys.Key {
	return keys.Encode(v.volID, keys.PathCode{}, 0, 0)
}

// Create writes a fresh volume with an empty root directory and returns a
// writable handle. The volume ID derives from the publisher key and name.
func Create(ctx context.Context, svc BlockService, name string, priv ed25519.PrivateKey, opts Options) (*Volume, error) {
	opts.applyDefaults()
	pub := priv.Public().(ed25519.PublicKey)
	v := &Volume{
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
	v.root = &RootBlock{
		Name:      name,
		PublicKey: pub,
		Version:   1,
		Root:      Inode{IsDir: true, NextSlot: 1},
	}
	if err := v.signRoot(); err != nil {
		return nil, err
	}
	data := encodeRoot(v.root)
	if err := svc.Put(ctx, v.rootKey(), data); err != nil {
		return nil, fmt.Errorf("fs: create volume %q: %w", name, err)
	}
	v.startFlusher()
	return v, nil
}

// Open attaches to an existing volume. priv may be nil for read-only
// access; the root signature is verified against pub.
func Open(ctx context.Context, svc BlockService, name string, pub ed25519.PublicKey, priv ed25519.PrivateKey, opts Options) (*Volume, error) {
	opts.applyDefaults()
	v := &Volume{
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
	root, err := v.fetchRoot(ctx)
	if err != nil {
		return nil, err
	}
	if priv != nil {
		v.root = root
	}
	v.startFlusher()
	return v, nil
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
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				_ = v.Sync(ctx)
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

// signRoot re-signs the root block (writer only).
func (v *Volume) signRoot() error {
	payload, err := v.root.signablePayload()
	if err != nil {
		return err
	}
	v.root.Signature = ed25519.Sign(v.priv, payload)
	return nil
}

// fetchRoot reads and verifies the root block from the DHT.
func (v *Volume) fetchRoot(ctx context.Context) (*RootBlock, error) {
	data, err := v.readBlock(ctx, v.rootKey())
	if err != nil {
		return nil, fmt.Errorf("fs: open volume %q: %w", v.name, err)
	}
	root, err := decodeRoot(data)
	if err != nil {
		return nil, err
	}
	payload, err := root.signablePayload()
	if err != nil {
		return nil, err
	}
	if !ed25519.Verify(v.pub, payload, root.Signature) {
		return nil, ErrBadSig
	}
	return &root, nil
}

// currentRoot returns the writer's root or a freshly fetched one.
func (v *Volume) currentRoot(ctx context.Context) (*RootBlock, error) {
	v.mu.Lock()
	r := v.root
	v.mu.Unlock()
	if r != nil {
		return r, nil
	}
	return v.fetchRoot(ctx)
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
	v.metrics.blocksRead.Inc()
	v.metrics.bytesRead.Add(uint64(len(data)))
	v.cacheRead(k, data)
	return data, nil
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
// *SyncError names the unwritten blocks.
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

	sent, err := v.putBlocks(ctx, ks, data)
	if err == nil && hasRoot {
		if err = v.svc.Put(ctx, rootKey, root.data); err != nil {
			err = fmt.Errorf("put root: %w", err)
		} else {
			hasRoot = false
		}
	}
	if err != nil {
		unsent := ks[sent:]
		if hasRoot {
			unsent = append(unsent, rootKey)
		}
		v.requeue(pending, unsent, rm)
		return &SyncError{Keys: unsent, Err: err}
	}
	for i, k := range rm {
		if err := v.svc.Remove(ctx, k); err != nil {
			v.requeue(nil, nil, rm[i:])
			return fmt.Errorf("fs: sync remove %s: %w", k.Short(), err)
		}
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
	name     string
}

// walk resolves the directory chain for the given components, loading
// entries at every level. It returns the chain of directories; comps must
// all be directories. v.mu is held: the exported methods take it to
// serialize against the single writer in this process.
func (v *Volume) walk(ctx context.Context, root *RootBlock, comps []string) ([]step, error) {
	cur := newCursor(v.volID)
	chain := []step{{cur: cur, ino: root.Root, entryIdx: -1}}
	entries, err := v.loadEntries(ctx, cur, &root.Root)
	if err != nil {
		return nil, err
	}
	chain[0].entries = entries
	for _, name := range comps {
		last := &chain[len(chain)-1]
		idx := findEntry(last.entries, name)
		if idx < 0 {
			return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
		}
		e := &last.entries[idx]
		if !e.IsDir {
			return nil, fmt.Errorf("%w: %s", ErrNotDir, name)
		}
		childCur := last.cur.child(e, name)
		ino, err := v.readInode(ctx, childCur, e.Ver, e.Hash)
		if err != nil {
			return nil, err
		}
		childEntries, err := v.loadEntries(ctx, childCur, &ino)
		if err != nil {
			return nil, err
		}
		chain = append(chain, step{
			cur: childCur, ino: ino, entries: childEntries, entryIdx: idx, name: name,
		})
	}
	return chain, nil
}

func findEntry(entries []DirEntry, name string) int {
	for i := range entries {
		if entries[i].Name == name {
			return i
		}
	}
	return -1
}

// readInode fetches and verifies an inode block.
func (v *Volume) readInode(ctx context.Context, cur pathCursor, ver uint32, hash [32]byte) (Inode, error) {
	data, err := v.readBlock(ctx, cur.blockKey(0, ver))
	if err != nil {
		return Inode{}, err
	}
	if contentHash(data) != hash {
		return Inode{}, fmt.Errorf("%w: inode", ErrIntegrity)
	}
	return decodeInode(data)
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
	err := v.fetchBlocks(ctx, cur, ino, 0, len(blks), false, func(i int, data []byte) { blks[i] = data })
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

// fetchBlocks reads content blocks [start, end) of a file — the one block
// fetch under whole-file reads and stream segments. Each block is checked
// against the inode's hash and handed to sink with its block index:
// first the blocks the write-back window or the read cache holds (read-
// your-writes), then the rest, fetched with one batched call when the
// service has one. A file's blocks form one contiguous key run (§4), so
// the batch usually costs one RPC per owner. A block a plain
// BatchBlockService left out of its answer gets one Get of its own; a
// SegmentBlockService has already walked the replicas and retried, so
// there a hole is final.
//
// stream marks a one-pass read: it takes the service's segment path, with
// its longer patience for reads racing churn, and fetched blocks do NOT
// enter the read cache — a multi-GB stream must not evict the hot metadata
// working set (§3's cache exists for repeat reads, not one-pass scans).
func (v *Volume) fetchBlocks(ctx context.Context, cur pathCursor, ino *Inode, start, end int, stream bool, sink func(i int, data []byte)) error {
	deliver := func(i int, data []byte) error {
		if contentHash(data) != ino.BlockHashes[i] {
			return fmt.Errorf("%w: block %d", ErrIntegrity, i+1)
		}
		sink(i, data)
		return nil
	}
	var (
		need []keys.Key
		pos  []int // block index (file-wide) per needed key
	)
	for i := start; i < end; i++ {
		k := cur.blockKey(uint64(i+1), ino.BlockVers[i])
		data, ok := v.cachedRead(k)
		if !ok {
			need = append(need, k)
			pos = append(pos, i)
			continue
		}
		v.metrics.cacheHits.Inc()
		if err := deliver(i, data); err != nil {
			return err
		}
	}
	if len(need) == 0 {
		return nil
	}
	var (
		got   map[keys.Key][]byte
		final bool // the batch call walked replicas and retried: its holes are final
		err   error
	)
	if batch, ok := v.svc.(BatchBlockService); ok && (stream || len(need) > 1) {
		seg, walks := v.svc.(SegmentBlockService)
		if walks && stream {
			got, err = seg.GetSegment(ctx, need)
		} else {
			got, err = batch.GetMany(ctx, need)
		}
		if err != nil {
			return err
		}
		final = walks
	}
	for j, k := range need {
		data, ok := got[k]
		if !ok {
			if final {
				return fmt.Errorf("fs: block %d: not found", pos[j]+1)
			}
			if data, err = v.svc.Get(ctx, k); err != nil {
				return fmt.Errorf("fs: block %d: %w", pos[j]+1, err)
			}
		}
		v.metrics.blocksRead.Inc()
		v.metrics.bytesRead.Add(uint64(len(data)))
		if !stream {
			v.cacheRead(k, data)
		}
		if err := deliver(pos[j], data); err != nil {
			return err
		}
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
		ver := versionHash(blk)
		ino.BlockVers = append(ino.BlockVers, ver)
		ino.BlockHashes = append(ino.BlockHashes, contentHash(blk))
		v.writeBlock(cur.blockKey(uint64(off/BlockSize+1), ver), blk, ino.IsDir)
	}
}

// writeInode serializes an inode, queues the block write, removes the old
// version, and returns the new version hash and content hash. v.mu is
// held.
func (v *Volume) writeInode(cur pathCursor, ino *Inode, oldVer uint32) (uint32, [32]byte, error) {
	data := encodeInode(ino)
	ver := versionHash(data)
	if oldVer != 0 {
		v.removeBlock(cur.blockKey(0, oldVer))
	}
	v.writeBlock(cur.blockKey(0, ver), data, ino.IsDir)
	return ver, contentHash(data), nil
}

// commitChain writes the modified directory chain bottom-up: each dir's
// entries are re-encoded, its inode rewritten, and its parent's entry
// updated; the root block is finally re-signed and written in place (§3:
// every write updates all metadata blocks along the path to the root).
// v.mu is held.
func (v *Volume) commitChain(ctx context.Context, root *RootBlock, chain []step) error {
	for i := len(chain) - 1; i >= 1; i-- {
		s := &chain[i]
		content := encodeEntries(s.entries)
		oldIno := s.ino
		v.writeContent(s.cur, content, &oldIno, &s.ino)
		oldVer := chain[i-1].entries[s.entryIdx].Ver
		ver, hash, err := v.writeInode(s.cur, &s.ino, oldVer)
		if err != nil {
			return err
		}
		parentEntry := &chain[i-1].entries[s.entryIdx]
		parentEntry.Ver = ver
		parentEntry.Hash = hash
		parentEntry.Size = s.ino.Size
	}
	// Root directory: entries embed in the root block's inode content.
	rootStep := &chain[0]
	content := encodeEntries(rootStep.entries)
	oldRoot := root.Root
	v.writeContent(rootStep.cur, content, &oldRoot, &rootStep.ino)
	root.Root = rootStep.ino
	root.Version++
	if err := v.signRoot(); err != nil {
		return err
	}
	v.writeBlock(v.rootKey(), encodeRoot(root), true)
	return nil
}
