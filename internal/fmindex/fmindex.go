// Package fmindex implements the spatial FM-index of the SNT-index (Section
// 4.1.1): the symbol-count array C plus the Burrows-Wheeler transform of the
// trajectory string stored in a wavelet tree. GetISARange is Procedure 2 of
// the paper: backward search returning the ISA range [st, ed) of all
// suffixes of the trajectory string that begin with a query path.
package fmindex

import "pathhist/internal/wavelet"

// Terminator is the trajectory-separator symbol '$'. Edge symbols start at
// MinEdgeSymbol; symbol 0 is reserved for the suffix-array sentinel.
const (
	Terminator    int32 = 1
	MinEdgeSymbol int32 = 2
)

// Index is an FM-index over one trajectory string.
type Index struct {
	c  []int64 // c[s] = number of symbols in T lexicographically smaller than s; len = k+1
	wt *wavelet.Tree
	n  int
}

// FromBWT builds the FM-index from an existing Burrows-Wheeler transform.
func FromBWT(bwt []int32, k int) *Index {
	c := make([]int64, k+1)
	for _, s := range bwt {
		c[s+1]++
	}
	for i := 1; i <= k; i++ {
		c[i] += c[i-1]
	}
	return &Index{c: c, wt: wavelet.New(bwt), n: len(bwt)}
}

// Len returns |T|.
func (ix *Index) Len() int { return ix.n }

// Alphabet returns k, the alphabet size the index was built with (len(C)
// is k+1). The snapshot loader cross-checks it against the index-level
// alphabet.
func (ix *Index) Alphabet() int { return len(ix.c) - 1 }

// GetISARange implements Procedure 2: it returns the ISA range [st, ed) of
// the path given as a symbol sequence; an empty range is (0, 0).
func (ix *Index) GetISARange(path []int32) (st, ed int64) {
	l := len(path)
	if l == 0 {
		return 0, 0
	}
	c := path[l-1]
	if int(c)+1 >= len(ix.c) {
		return 0, 0
	}
	st = ix.c[c]
	ed = ix.c[c+1]
	for i := 2; i <= l; i++ {
		c = path[l-i]
		if int(c)+1 >= len(ix.c) {
			return 0, 0
		}
		rs, re := ix.wt.Rank2(c, int(st), int(ed))
		st = ix.c[c] + int64(rs)
		ed = ix.c[c] + int64(re)
		if st >= ed {
			return 0, 0
		}
	}
	return st, ed
}

// CSizeBytes models the memory of the symbol-count array: the paper keeps a
// full-alphabet counter per partition (Figure 10a shows C growing linearly
// with the number of partitions).
func (ix *Index) CSizeBytes() int { return len(ix.c) * 4 }

// WTSizeBytes models the wavelet-tree memory.
func (ix *Index) WTSizeBytes() int { return ix.wt.SizeBytes() }
