// Package bptree provides an in-memory B+-tree multimap keyed by int64
// timestamps, the temporal-index tree of the original SNT-index (Section
// 4.1.2). It plays the role of Google's cpp-btree btree_multimap in the
// paper's evaluation (Section 6.3). Leaves are chained for range scans in
// both directions.
package bptree

import "sort"

// maxKeys is the node capacity. 32 keys keeps nodes around two cache lines
// of keys, comparable to the paper's in-memory B+-tree.
const maxKeys = 32

type node[V any] struct {
	keys     []int64
	children []*node[V] // nil for leaves
	vals     []V        // leaves only
	next     *node[V]   // leaf chain
	prev     *node[V]
}

func (n *node[V]) leaf() bool { return n.children == nil }

// Tree is a B+-tree multimap from int64 keys to values of type V. Duplicate
// keys are allowed; values with equal keys are kept in insertion order.
type Tree[V any] struct {
	root  *node[V]
	size  int
	first *node[V] // leftmost leaf
	last  *node[V] // rightmost leaf
}

// New returns an empty tree.
func New[V any]() *Tree[V] {
	l := &node[V]{}
	return &Tree[V]{root: l, first: l, last: l}
}

// Len returns the number of stored entries.
func (t *Tree[V]) Len() int { return t.size }

// upperBound returns the first index in keys with keys[i] > k.
func upperBound(keys []int64, k int64) int {
	return sort.Search(len(keys), func(i int) bool { return keys[i] > k })
}

// lowerBound returns the first index in keys with keys[i] >= k.
func lowerBound(keys []int64, k int64) int {
	return sort.Search(len(keys), func(i int) bool { return keys[i] >= k })
}

// Insert adds (key, v). Equal keys append after existing ones.
func (t *Tree[V]) Insert(key int64, v V) {
	t.size++
	nk, nn := t.insert(t.root, key, v)
	if nn != nil {
		t.root = &node[V]{
			keys:     []int64{nk},
			children: []*node[V]{t.root, nn},
		}
	}
}

// insert descends into n; on child split it returns the separator key and
// the new right sibling.
func (t *Tree[V]) insert(n *node[V], key int64, v V) (int64, *node[V]) {
	if n.leaf() {
		i := upperBound(n.keys, key)
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		var zero V
		n.vals = append(n.vals, zero)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = v
		if len(n.keys) > maxKeys {
			return t.splitLeaf(n)
		}
		return 0, nil
	}
	ci := upperBound(n.keys, key)
	sk, sn := t.insert(n.children[ci], key, v)
	if sn == nil {
		return 0, nil
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = sk
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = sn
	if len(n.children) > maxKeys {
		return t.splitInner(n)
	}
	return 0, nil
}

func (t *Tree[V]) splitLeaf(n *node[V]) (int64, *node[V]) {
	mid := len(n.keys) / 2
	right := &node[V]{
		keys: append([]int64(nil), n.keys[mid:]...),
		vals: append([]V(nil), n.vals[mid:]...),
		next: n.next,
		prev: n,
	}
	n.keys = n.keys[:mid:mid]
	n.vals = n.vals[:mid:mid]
	if right.next != nil {
		right.next.prev = right
	} else {
		t.last = right
	}
	n.next = right
	return right.keys[0], right
}

func (t *Tree[V]) splitInner(n *node[V]) (int64, *node[V]) {
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	right := &node[V]{
		keys:     append([]int64(nil), n.keys[mid+1:]...),
		children: append([]*node[V](nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return sep, right
}

// findLeaf returns the leaf that would contain the first entry >= key.
func (t *Tree[V]) findLeaf(key int64) *node[V] {
	n := t.root
	for !n.leaf() {
		n = n.children[lowerBound(n.keys, key)]
	}
	return n
}

// AscendRange calls fn for each entry with lo <= key < hi in ascending key
// order; fn returning false stops the scan.
func (t *Tree[V]) AscendRange(lo, hi int64, fn func(key int64, v V) bool) {
	n := t.findLeaf(lo)
	// The separator convention (children[lowerBound]) can land one leaf
	// early when lo equals a separator; step forward over empty prefixes.
	for n != nil {
		i := lowerBound(n.keys, lo)
		for ; i < len(n.keys); i++ {
			if n.keys[i] >= hi {
				return
			}
			if !fn(n.keys[i], n.vals[i]) {
				return
			}
		}
		n = n.next
		if n != nil && len(n.keys) > 0 && n.keys[0] >= hi {
			return
		}
		lo = minInt64
	}
}

// DescendRange calls fn for each entry with lo <= key < hi in descending key
// order; fn returning false stops the scan.
func (t *Tree[V]) DescendRange(lo, hi int64, fn func(key int64, v V) bool) {
	if hi <= lo {
		return
	}
	n := t.findLeaf(hi)
	// Entries with key == hi are excluded; the first candidate is the last
	// entry with key < hi, possibly in a previous leaf.
	for n != nil {
		i := lowerBound(n.keys, hi) - 1
		for ; i >= 0; i-- {
			if n.keys[i] < lo {
				return
			}
			if !fn(n.keys[i], n.vals[i]) {
				return
			}
		}
		n = n.prev
		hi = maxInt64
	}
}

const (
	minInt64 = -1 << 63
	maxInt64 = 1<<63 - 1
)

// Stats describes the tree's shape for the memory model.
type Stats struct {
	Leaves, Inners int
	LeafSlots      int // total allocated leaf capacity
	InnerSlots     int
}

// CollectStats walks the tree.
func (t *Tree[V]) CollectStats() Stats {
	var s Stats
	var walk func(n *node[V])
	walk = func(n *node[V]) {
		if n.leaf() {
			s.Leaves++
			s.LeafSlots += cap(n.keys)
			return
		}
		s.Inners++
		s.InnerSlots += cap(n.children)
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return s
}

// SizeBytes models the memory footprint given the per-entry payload size:
// keys, payload slots at allocated capacity, child pointers, and per-node
// header overhead (the pointer-chasing overhead CSS-trees avoid).
func (t *Tree[V]) SizeBytes(payloadBytes int) int {
	const nodeOverhead = 64
	s := t.CollectStats()
	return s.Leaves*nodeOverhead + s.LeafSlots*(8+payloadBytes) +
		s.Inners*nodeOverhead + s.InnerSlots*(8+8)
}
