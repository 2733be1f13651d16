// Package poolescape is the test fixture for the poolescape analyzer:
// pooled scratch is released on every path and never stored past return.
package poolescape

import "pathhist/internal/snt"

type holder struct{ sc *snt.Scratch }

var global *snt.Scratch

// good is the required shape: acquire, defer release.
func good() int {
	sc := snt.AcquireScratch()
	defer snt.ReleaseScratch(sc)
	if sc.Canceled() {
		return 0
	}
	return 1
}

// sequenced releases, but not on early-return or panic paths.
func sequenced(cond bool) int {
	sc := snt.AcquireScratch() // want `AcquireScratch without a deferred ReleaseScratch`
	if cond {
		return 0
	}
	snt.ReleaseScratch(sc)
	return 1
}

// leaked never releases at all.
func leaked() bool {
	sc := snt.AcquireScratch() // want `AcquireScratch is never released`
	return sc.Canceled()
}

// stored parks the scratch where it outlives the function.
func stored(h *holder, m map[int]*snt.Scratch) {
	sc := snt.AcquireScratch()
	defer snt.ReleaseScratch(sc)
	h.sc = sc   // want `stored in a field`
	m[0] = sc   // want `stored in a map or slice element`
	global = sc // want `stored in package variable global`
	ch := make(chan *snt.Scratch, 1)
	ch <- sc           // want `sent on a channel`
	_ = holder{sc: sc} // want `stored in a composite literal`
}

// returned hands the acquired scratch to the caller.
func returned() *snt.Scratch {
	sc := snt.AcquireScratch()
	defer snt.ReleaseScratch(sc)
	return sc // want `returned to the caller`
}

// suppressed documents a deliberate store.
func suppressed(h *holder) {
	sc := snt.AcquireScratch()
	defer snt.ReleaseScratch(sc)
	//lint:ignore poolescape fixture: demonstrates that a justified suppression is honored
	h.sc = sc
}
