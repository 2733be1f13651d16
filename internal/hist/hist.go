// Package hist implements the travel-time histograms of the paper: fixed
// bucket-width histograms built from traversal-time samples (Section 2.3),
// the discrete convolution operator * that combines sub-path histograms
// into a full-path histogram, the bucket-mass function B(H, [a,b)) used both
// by the log-likelihood metric (Section 5.3.3) and the cardinality
// estimator's formula (2), and the per-segment time-of-day histograms of
// Section 4.4.
package hist

import (
	"fmt"
	"math"
)

// Histogram is a travel-time histogram with integer bucket width h seconds:
// bucket i covers travel times [i*h, (i+1)*h). Counts are float64 because
// convolution multiplies them. A histogram is a value: its constructor
// fills it and nothing mutates it afterwards, so any number of readers may
// share it (the terminal-fallback memo, the full-result cache, Results).
type Histogram struct {
	h      int // bucket width in seconds
	offset int // index of the first stored bucket
	counts []float64
	total  float64
	// min/max are the exact extreme travel times represented (sample
	// extremes for sample-built histograms, summed extremes after
	// convolution). They drive the shift-and-enlarge interval adaptation
	// (Section 4.2).
	min, max int
	n        int // number of underlying samples (saturated product after convolution)
}

// newHist returns a histogram with a zeroed count buffer of length n.
func newHist(h, offset, n int) *Histogram {
	return &Histogram{h: h, offset: offset, counts: make([]float64, n)}
}

// FromSamples builds a histogram with bucket width h from travel-time
// samples in seconds. It returns nil for an empty sample set.
func FromSamples(xs []int, h int) *Histogram { return fromSamples(xs, h) }

// FromInt32 is FromSamples over an int32 column — a frozen traversal-time
// column read in place, without widening it into an []int first.
func FromInt32(xs []int32, h int) *Histogram { return fromSamples(xs, h) }

func fromSamples[T int | int32](xs []T, h int) *Histogram {
	if len(xs) == 0 {
		return nil
	}
	if h <= 0 {
		panic(fmt.Sprintf("hist: bucket width %d", h))
	}
	min, max := int(xs[0]), int(xs[0])
	for _, x := range xs[1:] {
		if int(x) < min {
			min = int(x)
		}
		if int(x) > max {
			max = int(x)
		}
	}
	lo, hi := min/h, max/h
	hg := newHist(h, lo, hi-lo+1)
	hg.min, hg.max, hg.n = min, max, len(xs)
	for _, x := range xs {
		hg.counts[int(x)/h-lo]++
		hg.total++
	}
	return hg
}

// Union returns the histogram of the pooled samples of the given
// sample-built histograms: FromSamples over the concatenation of their
// samples, in any order. It is exact — bucket x/h holds the same integer
// count either way, and integer-valued float sums below 2⁵³ do not round —
// so it equals FromSamples bucket for bucket, in offset, length, min, max,
// sample count and total. Nil parts hold no samples; all nil gives nil.
// Bucket widths must match. The result is freshly allocated.
func Union(hs ...*Histogram) *Histogram {
	var lo, hi, h int
	var first *Histogram
	for _, hg := range hs {
		if hg == nil {
			continue
		}
		end := hg.offset + len(hg.counts)
		if first == nil {
			first, h, lo, hi = hg, hg.h, hg.offset, end
			continue
		}
		if hg.h != h {
			panic(fmt.Sprintf("hist: union of width %d with %d", h, hg.h))
		}
		lo, hi = min(lo, hg.offset), max(hi, end)
	}
	if first == nil {
		return nil
	}
	out := newHist(h, lo, hi-lo)
	out.min, out.max = first.min, first.max
	for _, hg := range hs {
		if hg == nil {
			continue
		}
		out.min, out.max = min(out.min, hg.min), max(out.max, hg.max)
		out.n += hg.n
		out.total += hg.total
		for i, c := range hg.counts {
			out.counts[hg.offset-lo+i] += c
		}
	}
	return out
}

// BucketWidth returns h.
func (hg *Histogram) BucketWidth() int { return hg.h }

// NumSamples returns the number of samples the histogram was built from:
// after convolution, the product of the operands' sample counts, saturated
// at math.MaxInt (five sub-paths of 8 000 samples each already exceed it).
func (hg *Histogram) NumSamples() int { return hg.n }

// Total returns the total mass.
func (hg *Histogram) Total() float64 { return hg.total }

// Min returns the smallest represented travel time in seconds.
func (hg *Histogram) Min() int { return hg.min }

// Max returns the largest represented travel time in seconds.
func (hg *Histogram) Max() int { return hg.max }

// Count returns the mass of the bucket covering second x.
func (hg *Histogram) Count(x int) float64 {
	i := x/hg.h - hg.offset
	if i < 0 || i >= len(hg.counts) {
		return 0
	}
	return hg.counts[i]
}

// Mean returns the mass-weighted mean of bucket midpoints.
func (hg *Histogram) Mean() float64 {
	if hg.total == 0 {
		return 0
	}
	var s float64
	for i, c := range hg.counts {
		mid := (float64(hg.offset+i) + 0.5) * float64(hg.h)
		s += c * mid
	}
	return s / hg.total
}

// B returns the histogram mass falling in the travel-time range [a, b)
// seconds, counting partially overlapped buckets proportionally — the
// B(H, [ts, te)) of the paper's formula (2) and Section 5.3.3.
func (hg *Histogram) B(a, b int) float64 {
	if b <= a || hg.total == 0 {
		return 0
	}
	var s float64
	for i, c := range hg.counts {
		if c == 0 {
			continue
		}
		lo := (hg.offset + i) * hg.h
		hi := lo + hg.h
		ovLo, ovHi := lo, hi
		if a > ovLo {
			ovLo = a
		}
		if b < ovHi {
			ovHi = b
		}
		if ovHi > ovLo {
			s += c * float64(ovHi-ovLo) / float64(hg.h)
		}
	}
	return s
}

// Convolve returns H = hg * other, the discrete convolution of Section 2.3:
// the distribution of the sum of a travel time drawn from hg and one drawn
// from other. Bucket widths must match. Either operand being nil yields the
// other (identity for the fold in Procedure 6).
func (hg *Histogram) Convolve(other *Histogram) *Histogram {
	return ConvolveAll(2, func(i int) *Histogram {
		if i == 0 {
			return hg
		}
		return other
	})
}

// ConvolveAll folds the n histograms at(0), …, at(n-1) left to right,
// ((at(0) * at(1)) * at(2)) * …, each step the convolution Convolve
// describes, but builds only the result: the intermediate counts alternate
// between the result's buffer and one scratch buffer, planned so that the
// last step writes the result's. Bucket widths must match. Nil histograms
// are skipped; a single histogram is returned unchanged and none gives nil.
func ConvolveAll(n int, at func(i int) *Histogram) *Histogram {
	var first *Histogram
	start, k, length, last := 0, 0, 0, 0
	for i := 0; i < n; i++ {
		hg := at(i)
		if hg == nil {
			continue
		}
		if first == nil {
			first, start = hg, i
		} else if hg.h != first.h {
			panic(fmt.Sprintf("hist: convolving width %d with %d", first.h, hg.h))
		}
		k++
		last = len(hg.counts)
		length += last - 1
	}
	if k <= 1 {
		return first
	}
	out := &Histogram{h: first.h, offset: first.offset, counts: make([]float64, length+1),
		min: first.min, max: first.max, n: first.n}
	// Step s (1 ≤ s < k) writes the result's buffer when k-1-s is even and
	// the spare one otherwise. Intermediates only grow, so the spare buffer
	// fits the result of step k-2, the largest it receives.
	var spare []float64
	if k > 2 {
		spare = make([]float64, length+1-(last-1))
	}
	src := first.counts
	for i, s := start+1, 1; i < n; i++ {
		other := at(i)
		if other == nil {
			continue
		}
		dst := spare
		if (k-1-s)%2 == 0 {
			dst = out.counts
		}
		dst = dst[:len(src)+len(other.counts)-1]
		clear(dst)
		for x, a := range src {
			if a == 0 {
				continue
			}
			for y, b := range other.counts {
				if b == 0 {
					continue
				}
				dst[x+y] += float64(a * b) // explicit conversion: never fused into an FMA
			}
		}
		src, s = dst, s+1
		out.offset += other.offset
		out.min += other.min
		out.max += other.max
		if out.n == 0 || other.n <= math.MaxInt/out.n {
			out.n *= other.n
		} else {
			out.n = math.MaxInt
		}
	}
	for _, c := range out.counts {
		out.total += c
	}
	return out
}

// Quantile returns the smallest travel time x (bucket upper midpoint
// resolution) such that at least fraction q of the mass lies at or below x.
func (hg *Histogram) Quantile(q float64) float64 {
	if hg.total == 0 {
		return 0
	}
	target := q * hg.total
	var acc float64
	for i, c := range hg.counts {
		acc += c
		if acc >= target {
			// Linear interpolation within the bucket.
			lo := float64((hg.offset + i) * hg.h)
			frac := 1.0
			if c > 0 {
				frac = (target - (acc - c)) / c
			}
			return lo + frac*float64(hg.h)
		}
	}
	return float64((hg.offset + len(hg.counts)) * hg.h)
}

// CDF returns the fraction of mass at or below x seconds (proportional
// within the containing bucket) — used by the routing example to compute
// deadline-arrival probabilities.
func (hg *Histogram) CDF(x int) float64 {
	if hg.total == 0 {
		return 0
	}
	return hg.B(hg.offset*hg.h, x) / hg.total
}

// LogLikelihood returns log pH(x) under the paper's smoothed density
// (Section 5.3.3): pH(x) = gamma*f(x,H) + (1-gamma)*U(x), where f is the
// per-second density of the bucket containing x and U the uniform density
// over [tmin, tmax).
func (hg *Histogram) LogLikelihood(x int, gamma float64, tmin, tmax int) float64 {
	u := 1.0 / float64(tmax-tmin)
	var f float64
	if hg.total > 0 {
		b := x / hg.h * hg.h
		f = hg.B(b, b+hg.h) / hg.total / float64(hg.h)
	}
	return math.Log(gamma*f + (1-gamma)*u)
}

// SizeBytes models the memory footprint of the histogram.
func (hg *Histogram) SizeBytes() int {
	return 48 + len(hg.counts)*8
}

// DaySeconds is the length of a day in seconds.
const DaySeconds = 86400

// TodHistogram is a per-segment time-of-day histogram H_e counting segment
// entry events per time-of-day bucket; it supplies the selectivity estimate
// of formula (2) in Section 4.4 and the memory trade-off of Figure 10b.
type TodHistogram struct {
	width  int // bucket width in seconds
	counts []uint32
	total  int64
}

// NewTod returns a time-of-day histogram with the given bucket width in
// seconds (must divide 86400).
func NewTod(width int) *TodHistogram {
	if width <= 0 || DaySeconds%width != 0 {
		panic(fmt.Sprintf("hist: time-of-day bucket width %d", width))
	}
	return &TodHistogram{width: width, counts: make([]uint32, DaySeconds/width)}
}

// Add records an entry event at the given unix timestamp.
func (h *TodHistogram) Add(t int64) {
	tod := t % DaySeconds
	if tod < 0 {
		tod += DaySeconds
	}
	h.counts[int(tod)/h.width]++
	h.total++
}

// Total returns the total number of recorded events.
func (h *TodHistogram) Total() int64 { return h.total }

// MassRange returns the (proportionally interpolated) number of events with
// time-of-day in [s, e) seconds; the range may wrap midnight (s > e) and is
// full-day when e-s >= 86400.
func (h *TodHistogram) MassRange(s, e int64) float64 {
	if e-s >= DaySeconds {
		return float64(h.total)
	}
	s = ((s % DaySeconds) + DaySeconds) % DaySeconds
	e = ((e % DaySeconds) + DaySeconds) % DaySeconds
	if s == e {
		return 0
	}
	if s < e {
		return h.massLinear(s, e)
	}
	return h.massLinear(s, DaySeconds) + h.massLinear(0, e)
}

func (h *TodHistogram) massLinear(s, e int64) float64 {
	var sum float64
	w := int64(h.width)
	for b := s / w; b*w < e; b++ {
		lo, hi := b*w, (b+1)*w
		ovLo, ovHi := lo, hi
		if s > ovLo {
			ovLo = s
		}
		if e < ovHi {
			ovHi = e
		}
		if ovHi > ovLo {
			sum += float64(h.counts[b]) * float64(ovHi-ovLo) / float64(w)
		}
	}
	return sum
}

// Width returns the bucket width in seconds.
//
// Test seam for pathhist/internal/snt.
func (h *TodHistogram) Width() int { return h.width }

// SizeBytes models the memory footprint (Figure 10b).
func (h *TodHistogram) SizeBytes() int {
	return 32 + len(h.counts)*4
}
