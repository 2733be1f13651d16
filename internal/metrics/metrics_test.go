package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSMAPETerm(t *testing.T) {
	if got := SMAPETerm(100, 100); got != 0 {
		t.Errorf("equal = %v", got)
	}
	// |110-90| / ((110+90)/2) = 20/100 = 20%.
	if got := SMAPETerm(110, 90); math.Abs(got-20) > 1e-9 {
		t.Errorf("sMAPE = %v, want 20", got)
	}
	// Symmetry.
	if SMAPETerm(110, 90) != SMAPETerm(90, 110) {
		t.Error("not symmetric")
	}
	// Degenerate zero denominator.
	if got := SMAPETerm(0, 0); got != 0 {
		t.Errorf("zero case = %v", got)
	}
	// Bounded by 200%.
	if got := SMAPETerm(1000, 0); math.Abs(got-200) > 1e-9 {
		t.Errorf("max = %v", got)
	}
}

func TestWeightedErrorTerm(t *testing.T) {
	// Weight 0.5 of a 20% term contributes 10.
	if got := WeightedErrorTerm(0.5, 110, 90); math.Abs(got-10) > 1e-9 {
		t.Errorf("weighted = %v", got)
	}
}

func TestQError(t *testing.T) {
	if got := QError(10, 10); got != 1 {
		t.Errorf("exact = %v", got)
	}
	if got := QError(100, 10); got != 10 {
		t.Errorf("over = %v", got)
	}
	if got := QError(1, 10); got != 10 {
		t.Errorf("under = %v", got)
	}
	// Empty-set handling: est'=max(est,1), n'=max(n,1).
	if got := QError(0, 0); got != 1 {
		t.Errorf("both empty = %v", got)
	}
	if got := QError(0.2, 5); got != 5 {
		t.Errorf("sub-one estimate = %v", got)
	}
}

func TestQErrorProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		q := QError(float64(a), float64(b))
		return q >= 1 && q == QError(float64(b), float64(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeans(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty means")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := Percentile(xs, 50); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Errorf("max = %v", got)
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("min = %v", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile")
	}
}

func TestLog10(t *testing.T) {
	if Log10(100) != 2 {
		t.Error("log10(100)")
	}
	if Log10(0) != 0 || Log10(-5) != 0 {
		t.Error("guarded log10")
	}
}
