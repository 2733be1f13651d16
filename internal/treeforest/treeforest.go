// Package treeforest reproduces the paper's two temporal forest layouts — a
// B+-tree per segment (Section 4.1.2, "BT") or a cache-sensitive search tree
// per segment (Section 4.3.1, "CSS") — from the frozen columns the index
// serves. It exists for the Figure 10a/10c experiments (modelled size, build
// time) and as the scan-order oracle of the frozen-vs-tree tests; no
// production package imports it, internal/bptree or internal/csstree (the
// root package's TestProductionImportsNoTrees keeps that true).
package treeforest

import (
	"pathhist/internal/bptree"
	"pathhist/internal/csstree"
	"pathhist/internal/network"
	"pathhist/internal/temporal"
)

// Kind selects the tree layout.
type Kind int

// The two temporal tree variants of the paper.
const (
	CSS Kind = iota
	BPlus
)

func (k Kind) String() string {
	if k == CSS {
		return "CSS"
	}
	return "BT"
}

// PayloadBytes is the modelled in-leaf payload size with the partition
// field; PayloadBytesNoPartition models the single-partition layout the
// paper mentions saves ~300 MiB ("if the partition feature is removed").
const (
	PayloadBytes            = 24
	PayloadBytesNoPartition = 20
)

// tree is what both layouts offer a forest.
type tree interface {
	Len() int
	AscendRange(lo, hi int64, fn func(t int64, r temporal.Record) bool)
	DescendRange(lo, hi int64, fn func(t int64, r temporal.Record) bool)
	SizeBytes(payloadBytes int) int
}

// Index is Φe, the temporal tree of one segment.
type Index struct{ t tree }

// Len returns the number of traversal records.
//
// Test seam for pathhist/internal/temporal.
func (x *Index) Len() int { return x.t.Len() }

// Ascend scans records with lo <= t < hi in ascending time order; fn
// returning false stops the scan.
//
// Test seam for pathhist/internal/snt and pathhist/internal/temporal.
func (x *Index) Ascend(lo, hi int64, fn func(t int64, r temporal.Record) bool) {
	x.t.AscendRange(lo, hi, fn)
}

// Descend scans records with lo <= t < hi in descending time order.
//
// Test seam for pathhist/internal/snt and pathhist/internal/temporal.
func (x *Index) Descend(lo, hi int64, fn func(t int64, r temporal.Record) bool) {
	x.t.DescendRange(lo, hi, fn)
}

// Forest is F as trees: one per segment that has data.
type Forest struct {
	idx map[network.EdgeID]*Index
}

// FromFrozen builds a tree of the given kind over every segment's frozen
// columns. Records enter in column order, so equal timestamps keep it. Each
// record carries the paper's full payload: its TT and a come from the
// forest's cumulative column.
func FromFrozen(ff *temporal.FrozenForest, kind Kind) *Forest {
	f := &Forest{idx: make(map[network.EdgeID]*Index, ff.NumIndexes())}
	ff.Each(func(e network.EdgeID, fx *temporal.FrozenIndex) {
		recs := make([]temporal.Record, fx.Len())
		for i := range recs {
			d, s := fx.Traj[i], fx.Seq[i]
			recs[i] = temporal.Record{ISA: fx.ISA[i], Traj: d, TT: ff.TT(d, s), A: ff.Agg(d, s), Seq: s}
		}
		if kind == CSS {
			f.idx[e] = &Index{csstree.Build(fx.Ts, recs)}
			return
		}
		bt := bptree.New[temporal.Record]()
		for i, t := range fx.Ts {
			bt.Insert(t, recs[i])
		}
		f.idx[e] = &Index{bt}
	})
	return f
}

// Get returns Φe, or nil when the segment has no data.
//
// Test seam for pathhist/internal/snt and pathhist/internal/temporal.
func (f *Forest) Get(e network.EdgeID) *Index { return f.idx[e] }

// SizeBytes models the forest's memory footprint given the per-record
// payload size.
func (f *Forest) SizeBytes(payloadBytes int) int {
	const perEntryMapOverhead = 48 // hash bucket + pointer per segment tree
	sz := 0
	for _, x := range f.idx {
		sz += x.t.SizeBytes(payloadBytes) + perEntryMapOverhead
	}
	return sz
}
