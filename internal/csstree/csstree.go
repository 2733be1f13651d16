// Package csstree implements the cache-sensitive search tree of Rao & Ross
// used by the paper as an append-only, pointer-free replacement for the
// temporal B+-tree forest (Section 4.3.1). Data is a sorted array; a
// directory of cache-line-sized nodes (8 int64 keys = 64 bytes) built
// bottom-up accelerates searches without storing pointers. Range sizes
// ("the size of a key range") are computed exactly in logarithmic time,
// which the paper exploits for the CSS-* cardinality estimator modes
// (Section 4.4).
package csstree

// fanout is the number of keys per directory node: one 64-byte cache line
// of int64 keys, as in the Rao & Ross design.
const fanout = 8

// Tree is a CSS-tree multimap over int64 keys, built once from sorted data
// (the append-only trade-off of Section 4.3.1: no in-place insertion).
type Tree[V any] struct {
	keys   []int64
	vals   []V
	levels [][]int64 // levels[0] is closest to the data; each entry is the max key of a group below
}

// Build constructs a tree over sorted (keys, vals). It panics if the slices
// differ in length or keys are unsorted (a programming error).
func Build[V any](keys []int64, vals []V) *Tree[V] {
	if len(keys) != len(vals) {
		panic("csstree: keys/vals length mismatch")
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			panic("csstree: keys not sorted")
		}
	}
	t := &Tree[V]{keys: keys, vals: vals}
	t.buildDirectory()
	return t
}

// buildDirectory constructs the directory bottom-up over the sorted keys.
func (t *Tree[V]) buildDirectory() {
	cur := t.keys
	for len(cur) > fanout {
		next := make([]int64, 0, (len(cur)+fanout-1)/fanout)
		for i := 0; i < len(cur); i += fanout {
			end := i + fanout
			if end > len(cur) {
				end = len(cur)
			}
			next = append(next, cur[end-1])
		}
		t.levels = append(t.levels, next)
		cur = next
	}
}

// Len returns the number of entries.
func (t *Tree[V]) Len() int { return len(t.keys) }

// Key returns the i-th key in sorted order.
func (t *Tree[V]) Key(i int) int64 { return t.keys[i] }

// Val returns the i-th value in sorted order.
func (t *Tree[V]) Val(i int) V { return t.vals[i] }

// LowerBound returns the first index whose key is >= key (Len() if none).
func (t *Tree[V]) LowerBound(key int64) int {
	n := len(t.keys)
	if n == 0 {
		return 0
	}
	// Descend the directory from the top. At each level, group g spans
	// entries [g*fanout, (g+1)*fanout) of the level below; levels[l][g] is
	// the max key under that group.
	g := 0
	for l := len(t.levels) - 1; l >= 0; l-- {
		level := t.levels[l]
		lo := g * fanout
		hi := lo + fanout
		if hi > len(level) {
			hi = len(level)
		}
		g = hi - 1 // default: rightmost child if all maxima < key
		for i := lo; i < hi; i++ {
			if level[i] >= key {
				g = i
				break
			}
		}
	}
	lo := g * fanout
	hi := lo + fanout
	if hi > n {
		hi = n
	}
	for i := lo; i < hi; i++ {
		if t.keys[i] >= key {
			return i
		}
	}
	return n
}

// UpperBound returns the first index whose key is > key.
func (t *Tree[V]) UpperBound(key int64) int {
	if key == maxInt64 {
		return len(t.keys)
	}
	return t.LowerBound(key + 1)
}

const maxInt64 = 1<<63 - 1

// CountRange returns, exactly and in O(log n), the number of entries with
// lo <= key < hi — the fast range-size computation of Section 4.3.1.
func (t *Tree[V]) CountRange(lo, hi int64) int {
	if hi <= lo {
		return 0
	}
	return t.LowerBound(hi) - t.LowerBound(lo)
}

// AscendRange calls fn for entries with lo <= key < hi in ascending order;
// fn returning false stops the scan.
func (t *Tree[V]) AscendRange(lo, hi int64, fn func(key int64, v V) bool) {
	for i := t.LowerBound(lo); i < len(t.keys) && t.keys[i] < hi; i++ {
		if !fn(t.keys[i], t.vals[i]) {
			return
		}
	}
}

// DescendRange calls fn for entries with lo <= key < hi in descending order.
func (t *Tree[V]) DescendRange(lo, hi int64, fn func(key int64, v V) bool) {
	for i := t.LowerBound(hi) - 1; i >= 0 && t.keys[i] >= lo; i-- {
		if !fn(t.keys[i], t.vals[i]) {
			return
		}
	}
}

// MinKey returns the smallest key (ok=false when empty).
func (t *Tree[V]) MinKey() (int64, bool) {
	if len(t.keys) == 0 {
		return 0, false
	}
	return t.keys[0], true
}

// MaxKey returns the largest key (ok=false when empty).
func (t *Tree[V]) MaxKey() (int64, bool) {
	if len(t.keys) == 0 {
		return 0, false
	}
	return t.keys[len(t.keys)-1], true
}

// SizeBytes models the memory footprint: sorted key and payload arrays plus
// the pointer-free directory. This is the "low memory overhead" the paper
// credits CSS-trees with (Section 4.3.1).
func (t *Tree[V]) SizeBytes(payloadBytes int) int {
	sz := len(t.keys)*(8+payloadBytes) + 48 // arrays + struct header
	for _, l := range t.levels {
		sz += len(l) * 8
	}
	return sz
}
