package wavelet

// Rank returns the number of occurrences of symbol c in the prefix [0, i).
func (t *Tree) Rank(c int32, i int) int {
	if i <= 0 {
		return 0
	}
	if i > t.n {
		i = t.n
	}
	if t.singleUse {
		if c == t.single {
			return i
		}
		return 0
	}
	cd, ok := t.codes[c]
	if !ok {
		return 0
	}
	ni := int32(0)
	for d := uint8(0); d < cd.len; d++ {
		nd := &t.nodes[ni]
		var next int32
		if cd.bits&(1<<d) == 0 {
			i = nd.bv.Rank0(i)
			next = nd.left
		} else {
			i = nd.bv.Rank1(i)
			next = nd.right
		}
		if i == 0 {
			return 0
		}
		if next < 0 {
			return i
		}
		ni = next
	}
	return i
}

// Access returns the symbol at position i.
func (t *Tree) Access(i int) int32 {
	if t.singleUse {
		return t.single
	}
	ni := int32(0)
	for {
		nd := &t.nodes[ni]
		var next int32
		if nd.bv.Rank1(i+1) > nd.bv.Rank1(i) {
			i = nd.bv.Rank1(i)
			next = nd.right
		} else {
			i = nd.bv.Rank0(i)
			next = nd.left
		}
		if next < 0 {
			return ^next
		}
		ni = next
	}
}
