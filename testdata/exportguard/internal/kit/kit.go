// Package kit holds one exported declaration per case of the guard.
package kit

import (
	"container/heap"
	"go/types"
)

// Used has a production caller.
func Used(l Level) int {
	h := &hHeap{3, 1, 2}
	heap.Init(h)
	heap.Push(h, int(l))
	var imp types.Importer = importer{}
	_ = imp
	return heap.Pop(h).(int)
}

// Dead has no caller.
func Dead() {}

// Recur calls only itself.
func Recur(n int) int {
	if n == 0 {
		return 0
	}
	return Recur(n - 1)
}

// Box is used by the root package.
type Box struct{ Name string }

// Dead is a method nothing calls.
func (b Box) Dead() string { return b.Name }

// TestOnly is read only by kit's tests.
var TestOnly = 1

// Thing is re-exported by the root package.
type Thing struct{}

// Public is reachable through the root alias, so it is public API even
// with no caller.
func (Thing) Public() {}

// Level is an iota enumeration: its members are exempt.
type Level int

const (
	Low Level = iota
	Mid
	High
)

// Test seam for fixture/internal/other.
func Seam() int { return 1 }

type hHeap []int

func (h hHeap) Len() int           { return len(h) }
func (h hHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h hHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *hHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *hHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

type importer struct{}

func (importer) Import(path string) (*types.Package, error) { return nil, nil }
