package snt

import (
	"slices"
	"sync"

	"pathhist/internal/network"
)

// Scratch holds the reusable per-scan state of the Procedure 3/4 retrieval
// path: the admitted first-segment offsets, the travel-time sample buffer
// (one sample per admitted offset), the symbol/range buffers of Procedure
// 2, and the walk memo of one query's relaxation ladder.
// A Scratch belongs to exactly one goroutine at a time; the index itself is
// immutable after Build, so any number of goroutines may scan concurrently
// as long as each uses its own Scratch (see DESIGN.md §6).
type Scratch struct {
	hits   []int32 // first-segment column offsets admitted by collect, in scan order
	xs     []int   // travel-time samples, xs[k] of hits[k] (join)
	syms   []int32 // trajectory-string symbols of the query path
	ranges []Range // per-partition ISA ranges

	// cancel, when non-nil, is polled by the scan loops at window
	// boundaries and every cancelStride records within a window: a closed
	// channel aborts the scan early (DESIGN.md §12). The aborted scan's
	// output is partial — callers that set a cancel channel must discard
	// the results of any scan during which Canceled() became true.
	cancel <-chan struct{}

	// reach, when positive, arms the walk memo: it is the reach αmax − αmin
	// of the relaxation ladder the scans on this Scratch serve (SetReach).
	reach int64
	memo  walkMemo
	walks int // collect walks on this Scratch; tests read it
}

// walkMemo is the one-entry memo of the Scratch's last exhaustive widened
// walk (collect): every record of path[0] under window that passed the
// admit test, by column offset, newest first. ix == nil marks it empty.
type walkMemo struct {
	ix     *Index
	path   network.Path
	f      Filter
	window Interval
	offs   []int32
}

// SetReach arms (or, with 0, disarms) the walk memo on this Scratch with
// the reach αmax − αmin of the caller's relaxation ladder. The query layer
// arms each query's Scratch; ReleaseScratch disarms automatically.
func (sc *Scratch) SetReach(reach int64) { sc.reach = reach }

// widens reports whether a scan of this sub-query on this Scratch walks a
// widened window and may be answered from the walk memo: the memo is armed
// and the rung is a periodic one narrower than a day that needs β records
// of one user. Only such rungs widen: they are the ones that fail and climb
// the ladder, while unfiltered rungs mostly pass at once and would pay for
// the wider walk for nothing.
func (sc *Scratch) widens(iv Interval, f Filter, beta int) bool {
	return sc.reach > 0 && beta > 0 && f.HasPredicate() && iv.Kind == Periodic && iv.Width < DaySeconds
}

// covers reports whether the memo holds the exhaustive walk of p under f on
// ix over a window that contains iv.
func (m *walkMemo) covers(ix *Index, p network.Path, iv Interval, f Filter) bool {
	if m.ix != ix || m.f != f || !slices.Equal(m.path, p) {
		return false
	}
	if m.window.Width >= DaySeconds {
		return true
	}
	return mod(iv.TodStart-m.window.TodStart, DaySeconds)+iv.Width <= m.window.Width
}

// cancelStride bounds how many records a scan sweeps between cancellation
// polls: one poll (a non-blocking channel select) per 8k records keeps the
// overhead unmeasurable while bounding post-deadline scan time to
// microseconds.
const cancelStride = 8192

// SetCancel arms (or, with nil, disarms) scan cancellation on this Scratch.
// The query layer passes a context's Done channel; ReleaseScratch disarms
// automatically.
func (sc *Scratch) SetCancel(done <-chan struct{}) { sc.cancel = done }

// Canceled reports whether the armed cancel channel is closed. It is the
// check the scan loops poll, and callers use it after a scan to decide
// whether the output is trustworthy (a scan that observed cancellation
// returns partial data).
func (sc *Scratch) Canceled() bool {
	if sc.cancel == nil {
		return false
	}
	select {
	case <-sc.cancel:
		return true
	default:
		return false
	}
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// AcquireScratch returns a Scratch from the package pool. Callers that
// issue many scans (the query engine's workers) should hold one Scratch for
// their whole batch and release it afterwards.
func AcquireScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// ReleaseScratch returns a Scratch to the pool. The buffers of any result
// returned by a *With call are invalid after release.
func ReleaseScratch(sc *Scratch) {
	sc.cancel = nil // never let a dead query's context leak into the pool
	sc.reach = 0
	// A pooled Scratch must not pin a retired index.
	sc.memo.ix, sc.memo.path = nil, sc.memo.path[:0]
	scratchPool.Put(sc)
}
