// Package frozenmut is the test fixture for the frozenmut analyzer:
// writes to published temporal.FrozenIndex and temporal.FrozenForest state
// are flagged, writes during local construction are not.
package frozenmut

import (
	"pathhist/internal/temporal"
)

// build constructs a fresh index; writes through it are construction.
func build(ts []int64, isa []int32) *temporal.FrozenIndex {
	fx := &temporal.FrozenIndex{Ts: ts}
	fx.ISA = isa  // ok: locally constructed
	fx.Ts[0] = 0  // ok: locally constructed
	col := fx.Seq // fresh column alias
	_ = append(col, 1)
	return fx
}

// mutate receives a published index; every write is a violation.
func mutate(fx *temporal.FrozenIndex, isa []int32) {
	fx.Ts[0] = 99                // want `write to published frozen FrozenIndex.Ts`
	fx.Seq = nil                 // want `write to published frozen FrozenIndex.Seq`
	fx.ISA[0]++                  // want `write to published frozen FrozenIndex.ISA`
	copy(fx.ISA, isa)            // want `write to published frozen FrozenIndex.ISA`
	col := fx.Seq                // alias of a published column
	col[0] = 1                   // want `write to published frozen column \(via alias col\)`
	fx.ISA[1] += int32(len(isa)) // want `write to published frozen FrozenIndex.ISA`
}

// mutateForest receives a published forest: its trajectory-major cumulative
// column and offsets are published state like any segment's columns.
func mutateForest(ff *temporal.FrozenForest, start []int32) {
	ff.Cum[0] = 1         // want `write to published frozen FrozenForest.Cum`
	copy(ff.Start, start) // want `write to published frozen FrozenForest.Start`
	agg := ff.Cum         // alias of the published column
	agg[1]++              // want `write to published frozen column \(via alias agg\)`
}

// read-only access to published state is fine.
func sum(fx *temporal.FrozenIndex, ff *temporal.FrozenForest) int64 {
	var s int64
	for _, t := range fx.Ts {
		s += t
	}
	for _, a := range ff.Cum {
		s += int64(a)
	}
	return s
}

// suppressed demonstrates the //lint:ignore convention: the write below is
// a violation but carries a justification, so no diagnostic is expected.
func suppressed(fx *temporal.FrozenIndex) {
	//lint:ignore frozenmut fixture: demonstrates that a justified suppression is honored
	fx.Ts[0] = 1
}
