package bptree

// CountRange returns the number of entries with lo <= key < hi. For the
// B+-tree this walks the leaves (the CSS-tree does it in O(log n); that
// asymmetry is why the CSS estimator modes are exact, Section 4.4).
func (t *Tree[V]) CountRange(lo, hi int64) int {
	c := 0
	t.AscendRange(lo, hi, func(int64, V) bool { c++; return true })
	return c
}
