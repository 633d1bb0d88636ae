// Package store is the local block store of a live D2 node (the paper's
// D2-Store used BerkeleyDB). It defines the Engine interface a node runs
// against and the one ordered Index under both of its implementations —
// the in-memory Store here and the durable WAL+segment engine in
// store/disk. The Index carries the two duties defragmentation adds to
// put/get/remove: ordered range scans (for migration, replica repair and
// the Karger–Ruhl median split) and block pointers — lightweight entries
// that record where a block's data actually lives while a load-balance
// move is pending (§6). An engine adds only what is its own: its lock,
// how a mutation becomes durable, and where a block's bytes live.
package store

import (
	"sync"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/transport"
	"github.com/defragdht/d2/internal/wire"
)

// Block is one stored entry: either actual data or a pointer.
type Block struct {
	// Data is the block payload (nil for pointer entries).
	Data []byte
	// Pointer, when set, names the node that stores the data.
	Pointer transport.Addr
	// Size is the data size (pointers record the pointed-to size so load
	// accounting reflects eventual storage).
	Size int64
	// PointerSince is when the pointer was installed, for stabilization.
	PointerSince time.Time
	// Expires, when non-zero, is the block's TTL deadline (§3: blocks
	// are removed after a refreshable TTL in case explicit removal is
	// lost in a partition).
	Expires time.Time
}

// IsPointer reports whether this entry is a block pointer.
func (b *Block) IsPointer() bool { return b.Pointer != "" }

// Item pairs a key with its entry in scan results.
type Item struct {
	Key   keys.Key
	Block *Block
}

// Meta is the index-resident metadata of one stored entry, handed to
// ArcVisit callbacks without materializing block payloads. It is a plain
// value so visitors can run allocation-free.
type Meta struct {
	// Size is the data size (pointers report the pointed-to size).
	Size int64
	// Pointer, when set, names the node holding the data.
	Pointer transport.Addr
	// PointerSince is the pointer install time in Unix nanoseconds
	// (zero for data entries), for staleness accounting.
	PointerSince int64
	// Expires is the entry's deadline in Unix nanoseconds (zero for
	// none): a delayed removal or a TTL, due for SweepExpired once passed.
	Expires int64
}

// IsPointer reports whether the entry is a block pointer.
func (m Meta) IsPointer() bool { return m.Pointer != "" }

// Engine is the block-store contract a D2 node runs against. Two
// implementations, one index: the in-memory Store below (fast, volatile)
// and the durable disk engine in store/disk (WAL + segment files + crash
// recovery) both embed Index, which serves every read-side method; the
// mutating methods are each engine's own. All methods are safe for
// concurrent use, and every Block returned is the caller's own copy: both
// engines load a payload into a fresh buffer from wire.Payload (the memory
// engine copies, the disk engine preads), which the caller may modify,
// keep, or — once nothing else refers to it — hand to wire.ReleasePayload.
//
// Mutating methods carry no error returns by design: the node treats its
// local store as infallible and relies on replication for durability
// beyond the engine's own guarantees. A durable engine surfaces IO
// failures through its metrics and health checks instead.
type Engine interface {
	// Put stores block data, replacing any previous entry (including a
	// pointer: the data has arrived). A zero ttl means no expiry.
	Put(k keys.Key, data []byte, ttl time.Duration, now time.Time)
	// PutPointer installs a pointer entry unless data is already present.
	PutPointer(k keys.Key, target transport.Addr, size int64, now time.Time)
	// Get returns the entry under k.
	Get(k keys.Key) (*Block, bool)
	// GetBatch returns the entries for a batch of keys (nil for absent
	// ones), serving MultiGet without paying per-key lock traffic.
	GetBatch(ks []keys.Key) []*Block
	// Delete removes the entry under k immediately.
	Delete(k keys.Key) bool
	// Refresh extends a block's TTL (zero ttl clears it).
	Refresh(k keys.Key, ttl time.Duration, now time.Time) bool
	// SweepExpired removes entries whose TTL passed, returning the count.
	SweepExpired(now time.Time) int
	// Arc returns the entries in the circular arc (lo, hi], in key order.
	Arc(lo, hi keys.Key) []Item
	// ArcLimit returns up to limit entries of the arc (lo, hi] in key
	// order, reporting whether the scan was truncated (the caller resumes
	// from the last returned key). limit ≤ 0 means no cap.
	ArcLimit(lo, hi keys.Key, limit int) (items []Item, more bool)
	// ArcBytes returns the byte volume (data plus pointer sizes) in the
	// arc (lo, hi] — the primary-responsibility load the balancer
	// compares (§6).
	ArcBytes(lo, hi keys.Key) int64
	// ArcVisit walks the index metadata of the circular arc (lo, hi] in
	// key order, calling fn for each entry until it returns false. The
	// walk is index-only — implementations must not touch block payloads
	// or allocate per entry — so the placement census can sweep the whole
	// store every tick with zero allocations.
	ArcVisit(lo, hi keys.Key, fn func(k keys.Key, m Meta) bool)
	// MedianKey returns the key splitting the arc (lo, hi] into two
	// byte-balanced halves (false when the arc is empty).
	MedianKey(lo, hi keys.Key) (keys.Key, bool)
	// StalePointers returns pointers installed before the deadline, due
	// for stabilization (§6).
	StalePointers(deadline time.Time) []Item
	// Keys returns every stored key (snapshot).
	Keys() []keys.Key
	// Len returns the number of entries (data and pointers).
	Len() int
	// Bytes returns the stored data volume (pointers excluded).
	Bytes() int64
	// Flush blocks until every previously acknowledged write is durable
	// (a clean-shutdown barrier; no-op for volatile engines).
	Flush() error
	// Close releases the engine's resources. A durable engine flushes
	// first; the engine must not be used afterwards.
	Close() error
}

// BatchPutter is implemented by engines that can store a batch of blocks
// as one step and say whether it worked: the disk engine appends the
// whole batch to its log with one write and waits for one fsync, and —
// unlike Engine.Put, whose signature carries no error — reports a failed
// append or fsync, so the node can refuse to acknowledge the batch. ks
// and data are parallel and applied in order; the engine may retain the
// data slices.
type BatchPutter interface {
	PutBatch(ks []keys.Key, data [][]byte, ttl time.Duration, now time.Time) error
}

// PutBatch stores a batch through e's BatchPutter when it is one, and
// with one Put per block otherwise (which cannot fail visibly).
func PutBatch(e Engine, ks []keys.Key, data [][]byte, ttl time.Duration, now time.Time) error {
	if bp, ok := e.(BatchPutter); ok {
		return bp.PutBatch(ks, data, ttl, now)
	}
	for i, k := range ks {
		e.Put(k, data[i], ttl, now)
	}
	return nil
}

// IdentityStore is implemented by engines that can persist the node's
// ring identity alongside its blocks, so a restarted node rejoins with
// its old arc intact. The node saves its ID at startup and after every
// balance move, and adopts a persisted ID in preference to a random one.
type IdentityStore interface {
	// LoadIdentity returns the persisted node ID, if any.
	LoadIdentity() (keys.Key, bool)
	// SaveIdentity durably records the node ID.
	SaveIdentity(id keys.Key) error
}

// Store is the in-memory engine: the shared Index holding block bytes on
// the heap. Every read-side Engine method is the Index's own.
type Store struct {
	mu sync.RWMutex
	*Index[[]byte]
}

var _ Engine = (*Store)(nil)

// New creates an empty store.
func New() *Store {
	s := &Store{}
	s.Index = NewIndex(&s.mu, loadCopy, func(data []byte) int64 { return int64(len(data)) })
	return s
}

// loadCopy is the in-memory engine's payload loader: a copy into a pooled
// buffer, never the stored slice itself, so a reader that mutates or
// recycles what it got cannot touch the stored block.
func loadCopy(data []byte) ([]byte, bool) {
	buf := wire.Payload(len(data))
	copy(buf, data)
	return buf, true
}

// Deadline converts a TTL into the index's absolute form: the expiry in
// Unix nanoseconds, 0 for none.
func Deadline(ttl time.Duration, now time.Time) int64 {
	if ttl <= 0 {
		return 0
	}
	return now.Add(ttl).UnixNano()
}

// Put stores block data, replacing any previous entry (including a
// pointer: the data has arrived). A zero ttl means no expiry.
func (s *Store) Put(k keys.Key, data []byte, ttl time.Duration, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.SetData(k, data, Deadline(ttl, now))
}

// PutPointer installs a pointer entry unless data is already present.
func (s *Store) PutPointer(k keys.Key, target transport.Addr, size int64, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.AdmitsPointer(k) {
		s.SetPointer(k, Ptr{Target: target, Size: size, Since: now.UnixNano()})
	}
}

// Delete removes the entry under k immediately.
func (s *Store) Delete(k keys.Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Drop(k)
}

// Refresh extends a block's TTL (zero ttl clears it).
func (s *Store) Refresh(k keys.Key, ttl time.Duration, now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.Peek(k)
	if ok {
		s.Retime(e, Deadline(ttl, now))
	}
	return ok
}

// SweepExpired removes entries whose TTL passed, returning the count. The
// write lock is held only to drop the due keys Expired listed, each after
// re-checking its deadline: a put since may have replaced the entry.
func (s *Store) SweepExpired(now time.Time) (n int) {
	due := s.Expired(now.UnixNano())
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range due {
		if e, ok := s.Peek(k); ok && e.Expires != 0 && e.Expires < now.UnixNano() {
			s.Drop(k)
			n++
		}
	}
	return n
}

// Flush is a no-op: the in-memory store has no durability to wait for.
func (s *Store) Flush() error { return nil }

// Close is a no-op for the in-memory store.
func (s *Store) Close() error { return nil }
