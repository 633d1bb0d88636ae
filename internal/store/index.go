package store

import (
	"slices"
	"sync"
	"time"

	"github.com/defragdht/d2/internal/btree"
	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/ring"
	"github.com/defragdht/d2/internal/transport"
)

// Entry is one index slot, held by value in the B-tree: P says where the
// block's bytes live (the bytes themselves for the memory engine, a file
// location for the disk engine) and Expires is its deadline in Unix
// nanoseconds (0 = none), as the disk engine's log records carry it. A
// data entry's size is its payload's length. A pointer entry's P is the
// zero value; what it points at lives in the index's side table.
type Entry[P any] struct {
	Payload P     // data entries only
	Expires int64 // deadline (0 = none)
}

// Ptr is a §6 block pointer: the node that holds the block's data, the
// pointed-to size (so load accounting reflects eventual storage) and the
// install time in Unix nanoseconds.
type Ptr struct {
	Target transport.Addr
	Size   int64
	Since  int64
}

// Index is the ordered block index under both storage engines: the
// B-tree, the bytes/ttls accounting, the pointer side table, the
// pointer-versus-data rule and every operation that needs only index
// metadata, written once. An engine embeds it and adds what is its own:
// how a mutation becomes durable and how a payload P turns into bytes.
//
// Entries are tree values, not heap objects, so a block costs its key and
// one Entry[P] in a node — and nothing the garbage collector scans when P
// holds no pointers, as the disk engine's location does not. Pointers
// exist only between a §6 move and pointer stabilization, so they live in
// a map beside the tree; an index holding none never consults it.
//
// The lock is the engine's: it also guards whatever engine state has to
// change together with the index (the disk engine's file table and
// active WAL). The read-side methods take it themselves, so an engine
// serves them by embedding alone. The mutation primitives (and Peek /
// Ascend / Pointer) instead require the engine to already hold it,
// because the engine's own step — a WAL append — must be atomic with the
// index change.
type Index[P any] struct {
	mu   *sync.RWMutex
	tree btree.Tree[Entry[P]]
	load func(P) ([]byte, bool)
	size func(P) int64
	// ptrs is the pointer side table: every pointer entry's Ptr, by key.
	ptrs  map[keys.Key]Ptr
	bytes int64 // data bytes stored (pointers excluded)
	// ttls counts entries carrying a deadline, so Expired can skip its
	// full-tree scan when there is nothing it could find — the common
	// case on nodes that see no removals.
	ttls int
}

// NewIndex creates an empty index guarded by the engine's mu. load turns
// an entry's payload into the block's bytes (ok=false drops the entry
// from the result, for an engine whose payload read can fail); it runs
// with mu read-held. size returns a payload's length in bytes.
func NewIndex[P any](mu *sync.RWMutex, load func(P) ([]byte, bool), size func(P) int64) *Index[P] {
	return &Index[P]{mu: mu, load: load, size: size, ptrs: map[keys.Key]Ptr{}}
}

// --- primitives: the engine holds mu (for writing, unless noted) --------

// Peek returns the live entry under k (a pointer entry's has a zero
// payload). mu may be held for reading. The result points into a tree
// node: it is valid only while mu is held and only until the next
// SetData, SetPointer or Drop, and it must not be modified except through
// Retime, or — payload location only — by the engine while it holds mu
// for writing.
func (ix *Index[P]) Peek(k keys.Key) (*Entry[P], bool) { return ix.tree.Ref(k) }

// Pointer returns the pointer installed under k, if the entry there is
// one. mu may be held for reading.
func (ix *Index[P]) Pointer(k keys.Key) (Ptr, bool) {
	if len(ix.ptrs) == 0 {
		return Ptr{}, false
	}
	p, ok := ix.ptrs[k]
	return p, ok
}

// Ascend walks every live entry in key order until fn returns false. mu
// may be held for reading.
func (ix *Index[P]) Ascend(fn func(k keys.Key, e Entry[P]) bool) {
	ix.tree.AscendRange(keys.Zero, keys.MaxKey, fn)
}

// AdmitsPointer reports whether a pointer may be installed under k: real
// data wins over a pointer, so it may not once data is present.
func (ix *Index[P]) AdmitsPointer(k keys.Key) bool {
	if _, ok := ix.tree.Ref(k); !ok {
		return true
	}
	_, ptr := ix.Pointer(k)
	return ptr
}

// SetData installs a data entry under k, replacing any previous entry
// (including a pointer: the data has arrived).
func (ix *Index[P]) SetData(k keys.Key, payload P, expires int64) {
	ix.set(k, Entry[P]{Payload: payload, Expires: expires})
	ix.bytes += ix.size(payload)
}

// SetPointer installs a pointer entry under k, replacing any previous
// entry; the caller has checked AdmitsPointer.
func (ix *Index[P]) SetPointer(k keys.Key, p Ptr) {
	ix.set(k, Entry[P]{})
	ix.ptrs[k] = p
}

// set stores e under k and reverses the accounting of the entry it
// replaces; e itself is counted by the caller.
func (ix *Index[P]) set(k keys.Key, e Entry[P]) {
	if prev, had := ix.tree.Set(k, e); had {
		ix.uncount(k, prev)
	}
	if e.Expires != 0 {
		ix.ttls++
	}
}

// Drop removes the entry under k, reporting whether there was one.
func (ix *Index[P]) Drop(k keys.Key) bool {
	prev, ok := ix.tree.Delete(k)
	if ok {
		ix.uncount(k, prev)
	}
	return ok
}

// uncount reverses the accounting of the entry e that left k.
func (ix *Index[P]) uncount(k keys.Key, e Entry[P]) {
	if _, ptr := ix.Pointer(k); ptr {
		delete(ix.ptrs, k)
	} else {
		ix.bytes -= ix.size(e.Payload)
	}
	if e.Expires != 0 {
		ix.ttls--
	}
}

// Retime changes a live entry's deadline (0 clears it).
func (ix *Index[P]) Retime(e *Entry[P], expires int64) {
	if (e.Expires != 0) != (expires != 0) {
		if expires != 0 {
			ix.ttls++
		} else {
			ix.ttls--
		}
	}
	e.Expires = expires
}

// Footprint returns the entry count and the data bytes stored, for an
// engine that already holds mu (Len and Bytes take it themselves).
func (ix *Index[P]) Footprint() (entries int, bytes int64) {
	return ix.tree.Len(), ix.bytes
}

// meta is the index-resident metadata of entry e under k.
func (ix *Index[P]) meta(k keys.Key, e Entry[P]) Meta {
	if p, ok := ix.Pointer(k); ok {
		return Meta{Size: p.Size, Pointer: p.Target, PointerSince: p.Since, Expires: e.Expires}
	}
	return Meta{Size: ix.size(e.Payload), Expires: e.Expires}
}

// --- reads: each takes mu itself ---------------------------------------

// Expired returns the keys whose TTL deadline passed before now: the first
// phase of a sweep, under the read lock. When no live entry carries a TTL
// the scan is skipped entirely.
func (ix *Index[P]) Expired(now int64) []keys.Key {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.ttls == 0 {
		return nil
	}
	var dead []keys.Key
	ix.Ascend(func(k keys.Key, e Entry[P]) bool {
		if e.Expires != 0 && e.Expires < now {
			dead = append(dead, k)
		}
		return true
	})
	return dead
}

// Len returns the number of entries (data and pointers).
func (ix *Index[P]) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.tree.Len()
}

// Bytes returns the stored data volume (pointers excluded).
func (ix *Index[P]) Bytes() int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.bytes
}

// Keys returns every stored key (snapshot).
func (ix *Index[P]) Keys() []keys.Key {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]keys.Key, 0, ix.tree.Len())
	ix.Ascend(func(k keys.Key, _ Entry[P]) bool {
		out = append(out, k)
		return true
	})
	return out
}

// block materializes a fresh Block for entry e under k — never the live
// entry, so a later Refresh cannot race a reader of the result.
func (ix *Index[P]) block(k keys.Key, e Entry[P]) (*Block, bool) {
	m := ix.meta(k, e)
	b := &Block{Size: m.Size, Pointer: m.Pointer}
	if m.Expires != 0 {
		b.Expires = time.Unix(0, m.Expires)
	}
	if m.IsPointer() {
		b.PointerSince = time.Unix(0, m.PointerSince)
		return b, true
	}
	data, ok := ix.load(e.Payload)
	if !ok {
		return nil, false
	}
	b.Data = data
	return b, true
}

// Get returns the entry under k.
func (ix *Index[P]) Get(k keys.Key) (*Block, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	e, ok := ix.tree.Get(k)
	if !ok {
		return nil, false
	}
	return ix.block(k, e)
}

// GetBatch returns the entries for a batch of keys (nil for absent ones)
// under a single lock acquisition, serving MultiGet without paying the
// read-lock once per block.
func (ix *Index[P]) GetBatch(ks []keys.Key) []*Block {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]*Block, len(ks))
	for i, k := range ks {
		if e, ok := ix.tree.Get(k); ok {
			out[i], _ = ix.block(k, e)
		}
	}
	return out
}

// Arc returns the entries in the circular arc (lo, hi], in key order,
// payloads included.
func (ix *Index[P]) Arc(lo, hi keys.Key) []Item {
	items, _ := ix.ArcLimit(lo, hi, 0)
	return items
}

// ArcLimit returns up to limit entries of the circular arc (lo, hi] in
// key order, reporting whether the scan was truncated (the caller resumes
// from the last returned key). limit ≤ 0 means no cap.
func (ix *Index[P]) ArcLimit(lo, hi keys.Key, limit int) (items []Item, more bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ix.tree.AscendArc(lo, hi, func(k keys.Key, e Entry[P]) bool {
		if limit > 0 && len(items) == limit {
			more = true
			return false
		}
		if b, ok := ix.block(k, e); ok {
			items = append(items, Item{Key: k, Block: b})
		}
		return true
	})
	return items, more
}

// ArcBytes returns the byte volume (data plus pointer sizes) in the arc
// (lo, hi] — the primary-responsibility load the balancer compares (§6).
func (ix *Index[P]) ArcBytes(lo, hi keys.Key) int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.arcBytes(lo, hi)
}

func (ix *Index[P]) arcBytes(lo, hi keys.Key) int64 {
	var total int64
	ix.tree.AscendArc(lo, hi, func(k keys.Key, e Entry[P]) bool {
		total += ix.meta(k, e).Size
		return true
	})
	return total
}

// ArcVisit walks the index metadata of the arc (lo, hi] in key order —
// entry headers only: no payload is loaded and nothing is allocated per
// entry, so a census sweep over the whole store costs just the tree walk
// even when every payload lives in a segment file.
func (ix *Index[P]) ArcVisit(lo, hi keys.Key, fn func(k keys.Key, m Meta) bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ix.tree.AscendArc(lo, hi, func(k keys.Key, e Entry[P]) bool {
		return fn(k, ix.meta(k, e))
	})
}

// MedianKey returns the key splitting the arc (lo, hi] into two
// byte-balanced halves, ring.ByteSplit's first cut (false when the arc
// holds no bytes). Total and split come from one lock hold: a write
// landing between them would leave the walk chasing a stale half and miss
// a non-empty arc.
func (ix *Index[P]) MedianKey(lo, hi keys.Key) (split keys.Key, found bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ring.ByteSplit(func(visit func(keys.Key, int64) bool) {
		ix.tree.AscendArc(lo, hi, func(k keys.Key, e Entry[P]) bool { return visit(k, ix.meta(k, e).Size) })
	}, 2, func(k keys.Key) bool {
		split, found = k, true
		return false
	})
	return split, found
}

// StalePointers returns pointers installed before the deadline, due for
// stabilization (§6: a node retrieves the block for a pointer it has held
// longer than the pointer stabilization time), in key order. It reads the
// pointer side table, not the tree, so it costs nothing without pointers.
func (ix *Index[P]) StalePointers(deadline time.Time) []Item {
	dl := deadline.UnixNano()
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var out []Item
	for k, p := range ix.ptrs {
		if p.Since < dl {
			e, _ := ix.tree.Get(k)
			b, _ := ix.block(k, e)
			out = append(out, Item{Key: k, Block: b})
		}
	}
	slices.SortFunc(out, func(a, b Item) int { return a.Key.Compare(b.Key) })
	return out
}
