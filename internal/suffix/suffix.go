// Package suffix builds suffix arrays with the SA-IS induced-sorting
// algorithm (the role played by Yuta Mori's sais-lite in the paper, Section
// 6.2), plus the derived structures the SNT-index needs: the inverse suffix
// array ISA and the Burrows-Wheeler transform Tbwt (Section 4.1.1).
package suffix

// Array returns the suffix array of text, where each symbol lies in [1, k)
// (symbol 0 is reserved for the internal sentinel). Suffix order follows the
// usual convention that a proper prefix sorts before the longer string.
// An empty text yields an empty array.
func Array(text []int32, k int) []int32 {
	n := len(text)
	if n == 0 {
		return []int32{}
	}
	// Append the unique smallest sentinel 0, run SA-IS, then drop the
	// sentinel suffix (always rank 0).
	s := make([]int32, n+1)
	copy(s, text)
	s[n] = 0
	sa := make([]int32, n+1)
	sais(s, sa, k)
	return sa[1:]
}

// BuildAll returns the suffix array, inverse suffix array and
// Burrows-Wheeler transform of text in one call — the triple every
// partition (re)build needs (snt.Build, Index.Extend and compaction all
// derive an FM-index and per-record ISA positions from the same text).
func BuildAll(text []int32, k int) (sa, isa, bwt []int32) {
	sa = Array(text, k)
	return sa, Inverse(sa), BWT(text, sa)
}

// Inverse returns ISA where ISA[SA[j]] = j.
func Inverse(sa []int32) []int32 {
	isa := make([]int32, len(sa))
	for j, i := range sa {
		isa[i] = int32(j)
	}
	return isa
}

// BWT returns the Burrows-Wheeler transform Tbwt[i] = T[SA[i]-1], with the
// conventional cyclic wrap Tbwt[i] = T[n-1] when SA[i] = 0. In the paper's
// setting T ends in '$', so the wrapped symbol is a trajectory terminator
// and never an edge; Procedure 2's edge-symbol ranks are unaffected.
func BWT(text []int32, sa []int32) []int32 {
	n := len(text)
	bwt := make([]int32, n)
	for i, p := range sa {
		if p == 0 {
			bwt[i] = text[n-1]
		} else {
			bwt[i] = text[p-1]
		}
	}
	return bwt
}

// sais computes the suffix array of s into sa. s must end with a unique
// smallest sentinel. k is an exclusive upper bound on symbol values.
func sais(s []int32, sa []int32, k int) {
	n := len(s)
	if n == 1 {
		sa[0] = 0
		return
	}
	if n == 2 {
		sa[0], sa[1] = 1, 0
		return
	}
	// Classify suffix types: true = S-type, false = L-type.
	isS := make([]bool, n)
	isS[n-1] = true
	for i := n - 2; i >= 0; i-- {
		isS[i] = s[i] < s[i+1] || (s[i] == s[i+1] && isS[i+1])
	}
	isLMS := func(i int) bool { return i > 0 && isS[i] && !isS[i-1] }

	// Bucket sizes.
	bkt := make([]int32, k+1)
	counts := make([]int32, k)
	for _, c := range s {
		counts[c]++
	}
	bktEnds := func() {
		var sum int32
		for c := 0; c < k; c++ {
			sum += counts[c]
			bkt[c] = sum // end (exclusive) of bucket c
		}
	}
	bktStarts := func() {
		var sum int32
		for c := 0; c < k; c++ {
			bkt[c] = sum // start of bucket c
			sum += counts[c]
		}
	}

	induce := func() {
		// Induce L-type from left to right.
		bktStarts()
		for i := 0; i < n; i++ {
			j := sa[i] - 1
			if sa[i] > 0 && !isS[j] {
				sa[bkt[s[j]]] = j
				bkt[s[j]]++
			}
		}
		// Induce S-type from right to left.
		bktEnds()
		for i := n - 1; i >= 0; i-- {
			j := sa[i] - 1
			if sa[i] > 0 && isS[j] {
				bkt[s[j]]--
				sa[bkt[s[j]]] = j
			}
		}
	}

	// Step 1: place LMS suffixes at bucket ends, then induce.
	for i := range sa {
		sa[i] = -1
	}
	bktEnds()
	for i := n - 1; i >= 0; i-- {
		if isLMS(i) {
			bkt[s[i]]--
			sa[bkt[s[i]]] = int32(i)
		}
	}
	// The sentinel suffix is both LMS and the minimum; it is placed above.
	induce()

	// Step 2: compact sorted LMS substrings and name them.
	nLMS := 0
	for i := 0; i < n; i++ {
		if isLMS(int(sa[i])) {
			sa[nLMS] = sa[i]
			nLMS++
		}
	}
	names := sa[nLMS:]
	for i := range names {
		names[i] = -1
	}
	lmsEqual := func(a, b int32) bool {
		if a == int32(n-1) || b == int32(n-1) {
			return a == b
		}
		i := int32(0)
		for {
			ai, bi := a+i, b+i
			if s[ai] != s[bi] || isS[ai] != isS[bi] {
				return false
			}
			if i > 0 && (isLMS(int(ai)) || isLMS(int(bi))) {
				return isLMS(int(ai)) && isLMS(int(bi))
			}
			i++
		}
	}
	var name int32 = -1
	var prev int32 = -1
	for i := 0; i < nLMS; i++ {
		pos := sa[i]
		if prev == -1 || !lmsEqual(prev, pos) {
			name++
			prev = pos
		}
		names[pos/2] = name
	}
	// Compact names in LMS order of appearance.
	reduced := make([]int32, 0, nLMS)
	lmsPos := make([]int32, 0, nLMS)
	for i := 0; i < n; i++ {
		if isLMS(i) {
			lmsPos = append(lmsPos, int32(i))
			reduced = append(reduced, names[i/2])
		}
	}

	// Step 3: sort the reduced problem.
	sortedLMS := make([]int32, nLMS)
	if int(name)+1 == nLMS {
		// All names unique: order is directly known.
		for i, nm := range reduced {
			sortedLMS[nm] = int32(i)
		}
	} else {
		sub := make([]int32, nLMS)
		sais(reduced, sub, int(name)+1)
		copy(sortedLMS, sub)
	}

	// Step 4: final induced sort with LMS suffixes in sorted order.
	for i := range sa {
		sa[i] = -1
	}
	bktEnds()
	for i := nLMS - 1; i >= 0; i-- {
		j := lmsPos[sortedLMS[i]]
		bkt[s[j]]--
		sa[bkt[s[j]]] = j
	}
	induce()
}
