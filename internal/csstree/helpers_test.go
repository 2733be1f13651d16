package csstree

// CountRange returns, exactly and in O(log n), the number of entries with
// lo <= key < hi — the fast range-size computation of Section 4.3.1.
func (t *Tree[V]) CountRange(lo, hi int64) int {
	if hi <= lo {
		return 0
	}
	return t.LowerBound(hi) - t.LowerBound(lo)
}
