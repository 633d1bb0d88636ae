package store

import (
	"sync"
	"time"

	"github.com/defragdht/d2/internal/btree"
	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/ring"
	"github.com/defragdht/d2/internal/transport"
)

// Entry is one index slot: the metadata that range scans, load accounting
// and expiry need without touching the payload, plus P — where the
// block's bytes live (the bytes themselves for the memory engine, a file
// location for the disk engine). Times are Unix nanoseconds, as the disk
// engine's log records carry them.
type Entry[P any] struct {
	Payload      P              // data entries only
	Size         int64          // logical size (pointers: the pointed-to size)
	Expires      int64          // TTL deadline (0 = none)
	Pointer      transport.Addr // non-empty = pointer entry, no payload
	PointerSince int64          // pointer install time
}

// IsPointer reports whether the entry is a block pointer.
func (e *Entry[P]) IsPointer() bool { return e.Pointer != "" }

// Index is the ordered block index under both storage engines: the
// B-tree, the bytes/ttls/ptrs accounting, the pointer-versus-data rule
// and every operation that needs only index metadata, written once. An
// engine embeds it and adds what is its own: how a mutation becomes
// durable and how a payload P turns into bytes.
//
// The lock is the engine's: it also guards whatever engine state has to
// change together with the index (the disk engine's file table and
// active WAL). The read-side methods take it themselves, so an engine
// serves them by embedding alone. The mutation primitives (and Peek /
// Ascend) instead require the engine to already hold it, because the
// engine's own step — a WAL append — must be atomic with the index change.
type Index[P any] struct {
	mu    *sync.RWMutex
	tree  btree.Tree[*Entry[P]]
	load  func(P) ([]byte, bool)
	bytes int64 // data bytes stored (pointers excluded)
	// ttls and ptrs count entries carrying a TTL deadline / pointer
	// entries, so Expired and StalePointers can skip their full-tree
	// scans when there is nothing they could find — the common case on
	// nodes that never see TTL writes or balance moves.
	ttls int
	ptrs int
}

// NewIndex creates an empty index guarded by the engine's mu. load turns
// an entry's payload into the block's bytes (ok=false drops the entry
// from the result, for an engine whose payload read can fail); it runs
// with mu read-held.
func NewIndex[P any](mu *sync.RWMutex, load func(P) ([]byte, bool)) *Index[P] {
	return &Index[P]{mu: mu, load: load}
}

// --- primitives: the engine holds mu (for writing, unless noted) --------

// Peek returns the live entry under k. mu may be held for reading; the
// entry must not be modified except through Retime, or — payload
// location only — by the engine while it holds mu for writing.
func (ix *Index[P]) Peek(k keys.Key) (*Entry[P], bool) { return ix.tree.Get(k) }

// Ascend walks every live entry in key order until fn returns false. mu
// may be held for reading.
func (ix *Index[P]) Ascend(fn func(k keys.Key, e *Entry[P]) bool) {
	ix.tree.AscendRange(keys.Zero, keys.MaxKey, fn)
}

// AdmitsPointer reports whether a pointer may be installed under k: real
// data wins over a pointer, so it may not once data is present.
func (ix *Index[P]) AdmitsPointer(k keys.Key) bool {
	prev, ok := ix.tree.Get(k)
	return !ok || prev.IsPointer()
}

// Set installs e under k, replacing any previous entry.
func (ix *Index[P]) Set(k keys.Key, e *Entry[P]) {
	if prev, had := ix.tree.Set(k, e); had {
		ix.uncount(prev)
	}
	if e.IsPointer() {
		ix.ptrs++
	} else {
		ix.bytes += e.Size
	}
	if e.Expires != 0 {
		ix.ttls++
	}
}

// Drop removes the entry under k, reporting whether there was one.
func (ix *Index[P]) Drop(k keys.Key) bool {
	prev, ok := ix.tree.Delete(k)
	if ok {
		ix.uncount(prev)
	}
	return ok
}

// uncount reverses Set's accounting for a removed entry.
func (ix *Index[P]) uncount(e *Entry[P]) {
	if e.IsPointer() {
		ix.ptrs--
	} else {
		ix.bytes -= e.Size
	}
	if e.Expires != 0 {
		ix.ttls--
	}
}

// Retime changes a live entry's TTL deadline (0 clears it).
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

// Expired returns the keys whose TTL deadline passed before now. When no
// live entry carries a TTL the scan is skipped entirely.
func (ix *Index[P]) Expired(now int64) []keys.Key {
	if ix.ttls == 0 {
		return nil
	}
	var dead []keys.Key
	ix.Ascend(func(k keys.Key, e *Entry[P]) bool {
		if e.Expires != 0 && e.Expires < now {
			dead = append(dead, k)
		}
		return true
	})
	return dead
}

// --- reads: each takes mu itself ---------------------------------------

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
	ix.Ascend(func(k keys.Key, _ *Entry[P]) bool {
		out = append(out, k)
		return true
	})
	return out
}

// block materializes a fresh Block for e — never the live entry, so a
// later Refresh cannot race a reader of the result.
func (ix *Index[P]) block(e *Entry[P]) (*Block, bool) {
	b := &Block{Size: e.Size, Pointer: e.Pointer}
	if e.Expires != 0 {
		b.Expires = time.Unix(0, e.Expires)
	}
	if e.IsPointer() {
		b.PointerSince = time.Unix(0, e.PointerSince)
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
	return ix.block(e)
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
			out[i], _ = ix.block(e)
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
	ix.tree.AscendArc(lo, hi, func(k keys.Key, e *Entry[P]) bool {
		if limit > 0 && len(items) == limit {
			more = true
			return false
		}
		if b, ok := ix.block(e); ok {
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
	ix.tree.AscendArc(lo, hi, func(_ keys.Key, e *Entry[P]) bool {
		total += e.Size
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
	ix.tree.AscendArc(lo, hi, func(k keys.Key, e *Entry[P]) bool {
		return fn(k, Meta{Size: e.Size, Pointer: e.Pointer, PointerSince: e.PointerSince})
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
		ix.tree.AscendArc(lo, hi, func(k keys.Key, e *Entry[P]) bool { return visit(k, e.Size) })
	}, 2, func(k keys.Key) bool {
		split, found = k, true
		return false
	})
	return split, found
}

// StalePointers returns pointers installed before the deadline, due for
// stabilization (§6: a node retrieves the block for a pointer it has held
// longer than the pointer stabilization time). When no pointer entries
// exist the scan is skipped entirely.
func (ix *Index[P]) StalePointers(deadline time.Time) []Item {
	dl := deadline.UnixNano()
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.ptrs == 0 {
		return nil
	}
	var out []Item
	ix.Ascend(func(k keys.Key, e *Entry[P]) bool {
		if e.IsPointer() && e.PointerSince < dl {
			b, _ := ix.block(e)
			out = append(out, Item{Key: k, Block: b})
		}
		return true
	})
	return out
}
