// Package btree implements an in-memory B-tree keyed by DHT keys. The
// simulator uses it to enumerate the blocks of a key range when replica
// groups change, and the live store uses it for migration range scans. A
// hash map cannot serve these: defragmentation is all about key *ranges*.
package btree

import (
	"github.com/defragdht/d2/internal/keys"
)

// degree is the minimum number of children of an internal node (except the
// root). Nodes hold between degree-1 and 2*degree-1 items.
const degree = 16

const maxItems = 2*degree - 1

// Tree is a B-tree mapping keys.Key to values of type V. The zero value is
// an empty tree ready for use. Tree is not safe for concurrent use.
type Tree[V any] struct {
	root *node[V]
	size int
}

type item[V any] struct {
	key   keys.Key
	value V
}

type node[V any] struct {
	items    []item[V]
	children []*node[V] // nil for leaves
}

func (n *node[V]) leaf() bool { return len(n.children) == 0 }

// find returns the index of the first item with key ≥ k, and whether it is
// an exact match.
func (n *node[V]) find(k keys.Key) (int, bool) {
	lo, hi := 0, len(n.items)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.items[mid].key.Less(k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.items) && n.items[lo].key.Equal(k) {
		return lo, true
	}
	return lo, false
}

// Len returns the number of items.
func (t *Tree[V]) Len() int { return t.size }

// Get returns the value stored under k.
func (t *Tree[V]) Get(k keys.Key) (V, bool) {
	n := t.root
	for n != nil {
		i, ok := n.find(k)
		if ok {
			return n.items[i].value, true
		}
		if n.leaf() {
			break
		}
		n = n.children[i]
	}
	var zero V
	return zero, false
}

// Set stores v under k, returning the previous value if one existed.
func (t *Tree[V]) Set(k keys.Key, v V) (V, bool) {
	var zero V
	if t.root == nil {
		t.root = &node[V]{items: []item[V]{{key: k, value: v}}}
		t.size = 1
		return zero, false
	}
	if len(t.root.items) == maxItems {
		old := t.root
		t.root = &node[V]{children: []*node[V]{old}}
		t.root.splitChild(0)
	}
	prev, replaced := t.root.insert(k, v)
	if !replaced {
		t.size++
	}
	return prev, replaced
}

// splitChild splits the full child at index i, lifting its median into n.
func (n *node[V]) splitChild(i int) {
	child := n.children[i]
	mid := len(child.items) / 2
	median := child.items[mid]
	right := &node[V]{items: append([]item[V](nil), child.items[mid+1:]...)}
	if !child.leaf() {
		right.children = append([]*node[V](nil), child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}
	// The left half moves to an array of its own size: keys that arrive in
	// order (a file's blocks do) never touch it again, and leaving it in the
	// full node's array would keep that array half empty for good.
	child.items = append(make([]item[V], 0, mid), child.items[:mid]...)

	n.items = append(n.items, item[V]{})
	copy(n.items[i+1:], n.items[i:])
	n.items[i] = median
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

func (n *node[V]) insert(k keys.Key, v V) (V, bool) {
	i, ok := n.find(k)
	if ok {
		prev := n.items[i].value
		n.items[i].value = v
		return prev, true
	}
	var zero V
	if n.leaf() {
		n.items = append(n.items, item[V]{})
		copy(n.items[i+1:], n.items[i:])
		n.items[i] = item[V]{key: k, value: v}
		return zero, false
	}
	if len(n.children[i].items) == maxItems {
		n.splitChild(i)
		if n.items[i].key.Less(k) {
			i++
		} else if n.items[i].key.Equal(k) {
			prev := n.items[i].value
			n.items[i].value = v
			return prev, true
		}
	}
	return n.children[i].insert(k, v)
}

// Delete removes k, returning its value if present.
func (t *Tree[V]) Delete(k keys.Key) (V, bool) {
	var zero V
	if t.root == nil {
		return zero, false
	}
	v, ok := t.root.delete(k)
	if ok {
		t.size--
	}
	if len(t.root.items) == 0 {
		if t.root.leaf() {
			t.root = nil
		} else {
			t.root = t.root.children[0]
		}
	}
	return v, ok
}

// delete removes k from the subtree rooted at n (CLRS B-tree delete: every
// recursive descent is into a child with at least degree items).
func (n *node[V]) delete(k keys.Key) (V, bool) {
	var zero V
	i, ok := n.find(k)
	if n.leaf() {
		if !ok {
			return zero, false
		}
		v := n.items[i].value
		n.items = append(n.items[:i], n.items[i+1:]...)
		return v, true
	}
	if ok {
		v := n.items[i].value
		switch {
		case len(n.children[i].items) >= degree:
			// Replace with the in-order predecessor and delete it below.
			pred := n.children[i].deleteMax()
			n.items[i] = pred
		case len(n.children[i+1].items) >= degree:
			succ := n.children[i+1].deleteMin()
			n.items[i] = succ
		default:
			// Both neighbours minimal: merge and recurse.
			n.mergeChildren(i)
			n.children[i].delete(k)
		}
		return v, true
	}
	i = n.growChild(i, k)
	return n.children[i].delete(k)
}

// deleteMax removes and returns the largest item of the subtree.
func (n *node[V]) deleteMax() item[V] {
	if n.leaf() {
		it := n.items[len(n.items)-1]
		n.items = n.items[:len(n.items)-1]
		return it
	}
	i := len(n.children) - 1
	i = n.growChild(i, n.children[i].lastKey())
	return n.children[i].deleteMax()
}

// deleteMin removes and returns the smallest item of the subtree.
func (n *node[V]) deleteMin() item[V] {
	if n.leaf() {
		it := n.items[0]
		n.items = append(n.items[:0], n.items[1:]...)
		return it
	}
	i := n.growChild(0, n.children[0].firstKey())
	return n.children[i].deleteMin()
}

func (n *node[V]) lastKey() keys.Key  { return n.items[len(n.items)-1].key }
func (n *node[V]) firstKey() keys.Key { return n.items[0].key }

// growChild ensures n.children[i] has at least degree items before a
// descent, borrowing from a sibling or merging. It returns the index of
// the child that now covers key k (merging can shift indices).
func (n *node[V]) growChild(i int, k keys.Key) int {
	child := n.children[i]
	if len(child.items) >= degree {
		return i
	}
	if i > 0 && len(n.children[i-1].items) >= degree {
		// Borrow from the left sibling through the separator.
		left := n.children[i-1]
		child.items = append(child.items, item[V]{})
		copy(child.items[1:], child.items)
		child.items[0] = n.items[i-1]
		n.items[i-1] = left.items[len(left.items)-1]
		left.items = left.items[:len(left.items)-1]
		if !child.leaf() {
			child.children = append(child.children, nil)
			copy(child.children[1:], child.children)
			child.children[0] = left.children[len(left.children)-1]
			left.children = left.children[:len(left.children)-1]
		}
		return i
	}
	if i < len(n.children)-1 && len(n.children[i+1].items) >= degree {
		// Borrow from the right sibling.
		right := n.children[i+1]
		child.items = append(child.items, n.items[i])
		n.items[i] = right.items[0]
		right.items = append(right.items[:0], right.items[1:]...)
		if !child.leaf() {
			child.children = append(child.children, right.children[0])
			right.children = append(right.children[:0], right.children[1:]...)
		}
		return i
	}
	if i > 0 {
		i--
	}
	n.mergeChildren(i)
	return i
}

// mergeChildren merges children i and i+1 around separator i.
func (n *node[V]) mergeChildren(i int) {
	left, right := n.children[i], n.children[i+1]
	left.items = append(left.items, n.items[i])
	left.items = append(left.items, right.items...)
	left.children = append(left.children, right.children...)
	n.items = append(n.items[:i], n.items[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

// AscendRange calls fn for every item with ge ≤ key ≤ le, in order,
// stopping early if fn returns false.
func (t *Tree[V]) AscendRange(ge, le keys.Key, fn func(k keys.Key, v V) bool) {
	if t.root != nil {
		t.root.ascend(ge, le, fn)
	}
}

func (n *node[V]) ascend(ge, le keys.Key, fn func(k keys.Key, v V) bool) bool {
	i, _ := n.find(ge)
	for ; i < len(n.items); i++ {
		if !n.leaf() && !n.children[i].ascend(ge, le, fn) {
			return false
		}
		if le.Less(n.items[i].key) {
			return true
		}
		if !fn(n.items[i].key, n.items[i].value) {
			return false
		}
	}
	if !n.leaf() {
		return n.children[len(n.children)-1].ascend(ge, le, fn)
	}
	return true
}

// AscendArc calls fn for every item in the circular arc (lo, hi], handling
// wraparound — the natural query for DHT ownership ranges.
func (t *Tree[V]) AscendArc(lo, hi keys.Key, fn func(k keys.Key, v V) bool) {
	if lo.Compare(hi) < 0 {
		t.AscendRange(lo.Next(), hi, fn)
		return
	}
	if lo.Equal(hi) {
		// Whole ring.
		t.AscendRange(keys.Zero, keys.MaxKey, fn)
		return
	}
	if lo.Equal(keys.MaxKey) {
		// (MaxKey, hi] is [Zero, hi]: nothing lies above lo, and lo.Next()
		// would wrap to Zero and walk the whole tree.
		t.AscendRange(keys.Zero, hi, fn)
		return
	}
	cont := true
	t.AscendRange(lo.Next(), keys.MaxKey, func(k keys.Key, v V) bool {
		cont = fn(k, v)
		return cont
	})
	if cont {
		t.AscendRange(keys.Zero, hi, fn)
	}
}

// Min returns the smallest key, or false on an empty tree.
func (t *Tree[V]) Min() (keys.Key, V, bool) {
	if t.root == nil {
		var zero V
		return keys.Key{}, zero, false
	}
	n := t.root
	for !n.leaf() {
		n = n.children[0]
	}
	it := n.items[0]
	return it.key, it.value, true
}
