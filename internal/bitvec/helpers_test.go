package bitvec

// Append adds one bit.
func (b *Builder) Append(bit bool) {
	w := b.n >> 6
	if w >= len(b.words) {
		b.words = append(b.words, 0)
	}
	if bit {
		b.words[w] |= 1 << uint(b.n&63)
	}
	b.n++
}

// Ones returns the total number of set bits.
func (v *Vector) Ones() int { return v.ones }

// Get returns bit i.
func (v *Vector) Get(i int) bool {
	return v.words[i>>6]&(1<<uint(i&63)) != 0
}

// Len returns the number of bits.
func (v *Vector) Len() int { return v.n }
