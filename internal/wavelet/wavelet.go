// Package wavelet implements a Huffman-shaped wavelet tree over an integer
// alphabet with O(code length) rank queries — the sdsl-lite structure the
// paper stores the Burrows-Wheeler transform in (Section 6.2: "sdsl-lite's
// integer-alphabet Huffman-shaped wavelet tree").
package wavelet

import (
	"container/heap"

	"pathhist/internal/bitvec"
)

// Tree is an immutable Huffman-shaped wavelet tree over []int32 symbols.
type Tree struct {
	n     int
	nodes []node
	codes map[int32]code
	// single holds the symbol when the alphabet has exactly one symbol
	// (degenerate tree without bits).
	single    int32
	singleUse bool
}

type node struct {
	bv *bitvec.Vector
	// children: negative = leaf (symbol = ^child), otherwise node index.
	left, right int32
}

type code struct {
	bits uint64
	len  uint8
}

type hItem struct {
	weight int64
	order  int   // tie-break for determinism
	sym    int32 // valid when leaf
	leaf   bool
	left   *hItem
	right  *hItem
}

type hHeap []*hItem

func (h hHeap) Len() int { return len(h) }
func (h hHeap) Less(i, j int) bool {
	if h[i].weight != h[j].weight {
		return h[i].weight < h[j].weight
	}
	return h[i].order < h[j].order
}
func (h hHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *hHeap) Push(x interface{}) { *h = append(*h, x.(*hItem)) }
func (h *hHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// New builds a wavelet tree over seq. An empty sequence yields a usable
// tree whose ranks are all zero.
func New(seq []int32) *Tree {
	t := &Tree{n: len(seq), codes: make(map[int32]code)}
	if len(seq) == 0 {
		t.singleUse = true
		t.single = -1
		return t
	}
	lo, hi := seq[0], seq[0]
	for _, s := range seq[1:] {
		lo, hi = min(lo, s), max(hi, s)
	}
	if lo == hi {
		t.singleUse = true
		t.single = lo
		return t
	}
	// The build's per-symbol state — frequencies here, codes below — lives
	// in slices indexed by symbol − lo: the fill passes read a code per
	// sequence position, and a slice read is cheaper than a map probe.
	freq := make([]int64, int(hi)-int(lo)+1)
	for _, s := range seq {
		freq[int(s)-int(lo)]++
	}
	// Deterministic Huffman: seed heap in symbol order.
	h := make(hHeap, 0, len(freq))
	order := 0
	for k, f := range freq {
		if f == 0 {
			continue
		}
		h = append(h, &hItem{weight: f, order: order, sym: lo + int32(k), leaf: true})
		order++
	}
	heap.Init(&h)
	for h.Len() > 1 {
		a := heap.Pop(&h).(*hItem)
		b := heap.Pop(&h).(*hItem)
		heap.Push(&h, &hItem{weight: a.weight + b.weight, order: order, left: a, right: b})
		order++
	}
	root := heap.Pop(&h).(*hItem)

	// Flatten internal nodes breadth-first and assign codes.
	type qe struct {
		it   *hItem
		bits uint64
		len  uint8
	}
	codes := make([]code, len(freq))
	setCode := func(sym int32, c code) {
		codes[int(sym)-int(lo)] = c
		t.codes[sym] = c
	}
	var assign func(q qe) int32
	assign = func(q qe) int32 {
		idx := int32(len(t.nodes))
		t.nodes = append(t.nodes, node{})
		var nd node
		if q.it.left.leaf {
			setCode(q.it.left.sym, code{bits: q.bits, len: q.len + 1})
			nd.left = ^q.it.left.sym
		} else {
			nd.left = assign(qe{it: q.it.left, bits: q.bits, len: q.len + 1})
		}
		if q.it.right.leaf {
			setCode(q.it.right.sym, code{bits: q.bits | 1<<q.len, len: q.len + 1})
			nd.right = ^q.it.right.sym
		} else {
			nd.right = assign(qe{it: q.it.right, bits: q.bits | 1<<q.len, len: q.len + 1})
		}
		t.nodes[idx] = nd
		return idx
	}
	assign(qe{it: root})

	// Count bits per node, preallocate builders, then fill with cursors.
	counts := make([]int64, len(t.nodes))
	for _, s := range seq {
		c := codes[int(s)-int(lo)]
		ni := int32(0)
		for d := uint8(0); d < c.len; d++ {
			counts[ni]++
			if ni < 0 {
				break
			}
			if c.bits&(1<<d) == 0 {
				ni = t.nodes[ni].left
			} else {
				ni = t.nodes[ni].right
			}
			if ni < 0 {
				break
			}
		}
	}
	builders := make([]*bitvec.Builder, len(t.nodes))
	cursors := make([]int, len(t.nodes))
	for i := range builders {
		builders[i] = bitvec.NewBuilder(int(counts[i]))
		builders[i].SetLen(int(counts[i]))
	}
	for _, s := range seq {
		c := codes[int(s)-int(lo)]
		ni := int32(0)
		for d := uint8(0); d < c.len; d++ {
			bit := c.bits&(1<<d) != 0
			if bit {
				builders[ni].Set(cursors[ni])
			}
			cursors[ni]++
			var next int32
			if bit {
				next = t.nodes[ni].right
			} else {
				next = t.nodes[ni].left
			}
			if next < 0 {
				break
			}
			ni = next
		}
	}
	for i := range t.nodes {
		t.nodes[i].bv = builders[i].Finish()
	}
	return t
}

// Len returns the sequence length.
func (t *Tree) Len() int { return t.n }

// Rank2 returns the number of occurrences of symbol c in the prefixes
// [0, i) and [0, j), from a single tree descent. The
// FM-index backward search of Procedure 2 needs the ranks of both interval
// bounds at the same symbol for every path step; answering them together
// halves the code lookups and node walks, and on the O(1) bit-vector rank
// directory the whole step is a handful of table reads. Requires i <= j
// (backward-search bounds always satisfy this); the tests check it against
// two calls of a one-prefix reference Rank.
func (t *Tree) Rank2(c int32, i, j int) (ri, rj int) {
	if j <= 0 {
		return 0, 0
	}
	if i < 0 {
		i = 0
	}
	if j > t.n {
		j = t.n
	}
	if i > j {
		i = j
	}
	if t.singleUse {
		if c == t.single {
			return i, j
		}
		return 0, 0
	}
	cd, ok := t.codes[c]
	if !ok {
		return 0, 0
	}
	ni := int32(0)
	for d := uint8(0); d < cd.len; d++ {
		nd := &t.nodes[ni]
		var next int32
		if cd.bits&(1<<d) == 0 {
			i = nd.bv.Rank0(i)
			j = nd.bv.Rank0(j)
			next = nd.left
		} else {
			i = nd.bv.Rank1(i)
			j = nd.bv.Rank1(j)
			next = nd.right
		}
		if j == 0 {
			return 0, 0
		}
		if next < 0 {
			return i, j
		}
		ni = next
	}
	return i, j
}

// perNodeOverhead models the fixed per-node cost of the C++ structure
// (vtable/pointers/size fields); it is what makes many small wavelet trees
// expensive (Figure 10a).
const perNodeOverhead = 48

// SizeBytes models the memory footprint: per-node bit vectors with rank
// directories, per-node overhead, and the code table.
func (t *Tree) SizeBytes() int {
	sz := 0
	for i := range t.nodes {
		sz += perNodeOverhead
		if t.nodes[i].bv != nil {
			sz += t.nodes[i].bv.SizeBytes()
		}
	}
	sz += len(t.codes) * 16 // symbol -> (bits, len)
	return sz
}
