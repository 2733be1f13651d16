package fmindex

import "pathhist/internal/suffix"

// New builds the FM-index of the trajectory string text whose symbols lie in
// [1, k). It computes the suffix array internally.
func New(text []int32, k int) *Index {
	sa := suffix.Array(text, k)
	return FromBWT(suffix.BWT(text, sa), k)
}

// Count returns the number of occurrences of the path in the trajectory
// string, i.e. the width of its ISA range — the c_P input of the cardinality
// estimator (Section 4.4).
func (ix *Index) Count(path []int32) int64 {
	st, ed := ix.GetISARange(path)
	return ed - st
}
