// Package metrics implements the evaluation metrics of Section 5.3: the
// symmetric mean absolute percentage error (sMAPE) of summed sub-query
// means, the length-weighted error, the average log-likelihood of result
// histograms, and the q-error of cardinality estimates.
package metrics

import "math"

// SMAPETerm returns the single-query sMAPE term in percent (Section 5.3.1):
//
//	100 * |pred - actual| / ((pred + actual) / 2)
func SMAPETerm(pred, actual float64) float64 {
	den := (pred + actual) / 2
	if den == 0 {
		return 0
	}
	return 100 * math.Abs(pred-actual) / den
}

// WeightedErrorTerm returns one sub-query's contribution to the weighted
// error of a query (Section 5.3.2): weight * sMAPE(pred_j, actual_j)/100,
// scaled back to percent by the caller summing terms already in percent.
func WeightedErrorTerm(weight, pred, actual float64) float64 {
	return weight * SMAPETerm(pred, actual)
}

// QError returns the q-error of a cardinality estimate (Section 5.3.4):
//
//	q = max(est'/n', n'/est') with n' = max(n, 1), est' = max(est, 1)
//
// following Stefanoni et al.'s handling of empty sets.
func QError(est, n float64) float64 {
	e := math.Max(est, 1)
	a := math.Max(n, 1)
	return math.Max(e/a, a/e)
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (0..100) of xs using nearest-rank
// on a sorted copy.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	// insertion sort; metric sample sets are small enough
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// Log10 returns log10(x) guarding zero (the q-error axis of Figure 11a is
// in orders of magnitude).
func Log10(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Log10(x)
}
