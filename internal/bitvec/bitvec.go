// Package bitvec provides an immutable bit vector with O(1) rank support,
// the building block of the wavelet tree (Section 4.1.1: "The
// Burrows-Wheeler transform is stored in a wavelet tree to enable rank
// queries").
package bitvec

import "math/bits"

const wordsPerBlock = 8 // 512-bit superblocks

// Builder accumulates bits; Finish freezes it into a Vector.
type Builder struct {
	words []uint64
	n     int
}

// NewBuilder returns a builder with capacity for n bits.
func NewBuilder(n int) *Builder {
	return &Builder{words: make([]uint64, (n+63)/64)}
}

// Set sets bit i (which must be < the capacity given to NewBuilder) and
// extends the logical length to cover it. Used for random-order filling.
func (b *Builder) Set(i int) {
	b.words[i>>6] |= 1 << uint(i&63)
	if i >= b.n {
		b.n = i + 1
	}
}

// SetLen fixes the logical length (for Set-based filling).
func (b *Builder) SetLen(n int) { b.n = n }

// Finish freezes the builder into a Vector with a two-level rank directory:
// an absolute popcount per 512-bit superblock plus a superblock-relative
// popcount per word, so Rank1 answers with two table reads and one word
// popcount — no per-query scan over the superblock's words.
func (b *Builder) Finish() *Vector {
	nw := (b.n + 63) / 64
	v := &Vector{words: b.words[:nw], n: b.n}
	v.blocks = make([]int32, nw/wordsPerBlock+1)
	v.sub = make([]uint16, nw)
	var sum int32
	var rel uint16
	for i, w := range v.words {
		if i%wordsPerBlock == 0 {
			v.blocks[i/wordsPerBlock] = sum
			rel = 0
		}
		v.sub[i] = rel
		c := bits.OnesCount64(w)
		sum += int32(c)
		rel += uint16(c)
	}
	v.ones = int(sum)
	return v
}

// Vector is an immutable bit vector with a two-level rank directory.
type Vector struct {
	words []uint64
	// blocks[j] is the number of set bits before superblock j (absolute,
	// one entry per 8 words); sub[i] is the number of set bits between the
	// start of word i's superblock and word i (relative, at most 7*64 so a
	// uint16 always fits). Together they make Rank1 O(1).
	blocks []int32
	sub    []uint16
	n      int
	ones   int
}

// Rank1 returns the number of set bits in [0, i) in O(1): superblock
// absolute count + in-superblock word offset + popcount of the partial word.
func (v *Vector) Rank1(i int) int {
	if i <= 0 {
		return 0
	}
	if i >= v.n {
		return v.ones
	}
	w := i >> 6
	r := int(v.blocks[w/wordsPerBlock]) + int(v.sub[w])
	if rem := uint(i & 63); rem != 0 {
		r += bits.OnesCount64(v.words[w] & (1<<rem - 1))
	}
	return r
}

// Rank0 returns the number of clear bits in [0, i).
func (v *Vector) Rank0(i int) int {
	if i <= 0 {
		return 0
	}
	if i > v.n {
		i = v.n
	}
	return i - v.Rank1(i)
}

// SizeBytes models the memory footprint: bit words plus both rank-directory
// levels.
func (v *Vector) SizeBytes() int {
	return len(v.words)*8 + len(v.blocks)*4 + len(v.sub)*2
}
