package fmindex

import (
	"math/rand"
	"testing"

	"pathhist/internal/suffix"
)

// buildPaperText returns the Section 4.1.1 trajectory string
// T = ABE$ACDE$ABF$ABE$ with A..F mapped to symbols 2..7.
func buildPaperText() ([]int32, int) {
	text := []int32{}
	sym := func(c byte) int32 {
		if c == '$' {
			return Terminator
		}
		return int32(c-'A') + MinEdgeSymbol
	}
	for _, c := range []byte("ABE$ACDE$ABF$ABE$") {
		text = append(text, sym(c))
	}
	return text, int(MinEdgeSymbol) + 6
}

func path(names string) []int32 {
	out := make([]int32, len(names))
	for i := range names {
		out[i] = int32(names[i]-'A') + MinEdgeSymbol
	}
	return out
}

func TestPaperISARanges(t *testing.T) {
	text, k := buildPaperText()
	ix := New(text, k)
	// Section 4.1.1: R(<A>) = [4, 8) and R(<A,B>) = [4, 7).
	if st, ed := ix.GetISARange(path("A")); st != 4 || ed != 8 {
		t.Errorf("R(<A>) = [%d, %d), want [4, 8)", st, ed)
	}
	if st, ed := ix.GetISARange(path("AB")); st != 4 || ed != 7 {
		t.Errorf("R(<A,B>) = [%d, %d), want [4, 7)", st, ed)
	}
	// Counts per trajectory set: ABE twice, ACDE once, ABF once.
	cases := []struct {
		p    string
		want int64
	}{
		{"ABE", 2}, {"ACDE", 1}, {"ABF", 1}, {"AB", 3}, {"A", 4},
		{"E", 3}, {"B", 3}, {"CD", 1}, {"BE", 2}, {"BF", 1},
		{"AD", 0}, {"EA", 0}, {"FF", 0}, {"ABCDEF", 0},
	}
	for _, c := range cases {
		if got := ix.Count(path(c.p)); got != c.want {
			t.Errorf("Count(%s) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestISARangeMatchesSuffixArray(t *testing.T) {
	// Property: GetISARange(P) equals the range of suffix-array rows whose
	// suffixes start with P.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 60; trial++ {
		// Random trajectory string: 3-9 trajectories of 1-8 edges over a
		// small edge alphabet, each terminated by '$'.
		k := int(MinEdgeSymbol) + 5
		var text []int32
		for tr := 0; tr < 3+rng.Intn(7); tr++ {
			for e := 0; e < 1+rng.Intn(8); e++ {
				text = append(text, MinEdgeSymbol+int32(rng.Intn(5)))
			}
			text = append(text, Terminator)
		}
		sa := suffix.Array(text, k)
		ix := New(text, k)
		for q := 0; q < 30; q++ {
			plen := 1 + rng.Intn(4)
			p := make([]int32, plen)
			for i := range p {
				p[i] = MinEdgeSymbol + int32(rng.Intn(5))
			}
			st, ed := ix.GetISARange(p)
			// Reference: scan the suffix array.
			var wantSt, wantEd int64 = -1, -1
			for row, pos := range sa {
				match := int(pos)+plen <= len(text)
				if match {
					for i := 0; i < plen; i++ {
						if text[int(pos)+i] != p[i] {
							match = false
							break
						}
					}
				}
				if match {
					if wantSt < 0 {
						wantSt = int64(row)
					}
					wantEd = int64(row) + 1
				}
			}
			if wantSt < 0 {
				if st != ed {
					t.Fatalf("trial %d: path %v should be absent, got [%d,%d)", trial, p, st, ed)
				}
				continue
			}
			if st != wantSt || ed != wantEd {
				t.Fatalf("trial %d: path %v range [%d,%d), want [%d,%d)", trial, p, st, ed, wantSt, wantEd)
			}
		}
	}
}

func TestEmptyAndInvalidPaths(t *testing.T) {
	text, k := buildPaperText()
	ix := New(text, k)
	if st, ed := ix.GetISARange(nil); st != 0 || ed != 0 {
		t.Error("empty path should yield empty range")
	}
	// Out-of-alphabet symbol.
	if st, ed := ix.GetISARange([]int32{999}); st != 0 || ed != 0 {
		t.Error("out-of-alphabet symbol should yield empty range")
	}
	if st, ed := ix.GetISARange([]int32{path("A")[0], 999}); st != 0 || ed != 0 {
		t.Error("out-of-alphabet tail should yield empty range")
	}
	if ix.Len() != len(text) {
		t.Errorf("Len = %d", ix.Len())
	}
}

func TestSizeAccounting(t *testing.T) {
	text, k := buildPaperText()
	ix := New(text, k)
	if ix.CSizeBytes() != (k+1)*4 {
		t.Errorf("CSizeBytes = %d", ix.CSizeBytes())
	}
	if ix.WTSizeBytes() <= 0 {
		t.Error("WTSizeBytes should be positive")
	}
	if ix.c[Terminator] != 0 {
		t.Errorf("C($) = %d, want 0 (nothing sorts before $)", ix.c[Terminator])
	}
	if ix.c[MinEdgeSymbol] != 4 {
		t.Errorf("C(A) = %d, want 4 (four $ terminators)", ix.c[MinEdgeSymbol])
	}
}
