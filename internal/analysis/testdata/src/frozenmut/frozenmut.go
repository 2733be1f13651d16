// Package frozenmut is the test fixture for the frozenmut analyzer:
// writes to published temporal.FrozenIndex state are flagged, writes during
// local construction are not.
package frozenmut

import (
	"pathhist/internal/temporal"
)

// build constructs a fresh index; writes through it are construction.
func build(ts []int64, tt []int32) *temporal.FrozenIndex {
	fx := &temporal.FrozenIndex{Ts: ts}
	fx.TT = tt    // ok: locally constructed
	fx.Ts[0] = 0  // ok: locally constructed
	col := fx.Seq // fresh column alias
	_ = append(col, 1)
	return fx
}

// mutate receives a published index; every write is a violation.
func mutate(fx *temporal.FrozenIndex, tt []int32) {
	fx.Ts[0] = 99              // want `write to published frozen FrozenIndex.Ts`
	fx.Seq = nil               // want `write to published frozen FrozenIndex.Seq`
	fx.ISA[0]++                // want `write to published frozen FrozenIndex.ISA`
	copy(fx.TT, tt)            // want `write to published frozen FrozenIndex.TT`
	col := fx.A                // alias of a published column
	col[0] = 1                 // want `write to published frozen column \(via alias col\)`
	fx.TT[1] += int32(len(tt)) // want `write to published frozen FrozenIndex.TT`
}

// read-only access to published state is fine.
func sum(fx *temporal.FrozenIndex) int64 {
	var s int64
	for _, t := range fx.Ts {
		s += t
	}
	return s
}

// suppressed demonstrates the //lint:ignore convention: the write below is
// a violation but carries a justification, so no diagnostic is expected.
func suppressed(fx *temporal.FrozenIndex) {
	//lint:ignore frozenmut fixture: demonstrates that a justified suppression is honored
	fx.Ts[0] = 1
}
