package hist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPaperSection23Example(t *testing.T) {
	// Q = spq(<A,B,E>, [0,15), u=u1, 2) yields travel times {11, 10}:
	// H = {[10,11): 1; [11,12): 1} with h = 1.
	h := FromSamples([]int{11, 10}, 1)
	if h.Count(10) != 1 || h.Count(11) != 1 || h.Total() != 2 {
		t.Errorf("H = %v %v total %v", h.Count(10), h.Count(11), h.Total())
	}
	// Split variant: H1 = {[6,7):2; [7,8):1}, H2 = {[4,5):2; [5,6):1},
	// convolution H = {[10,11):4; [11,12):4; [12,13):1}.
	h1 := FromSamples([]int{6, 6, 7}, 1)
	h2 := FromSamples([]int{4, 4, 5}, 1)
	conv := h1.Convolve(h2)
	if conv.Count(10) != 4 || conv.Count(11) != 4 || conv.Count(12) != 1 {
		t.Errorf("convolution = %v,%v,%v; want 4,4,1",
			conv.Count(10), conv.Count(11), conv.Count(12))
	}
	if conv.Total() != 9 {
		t.Errorf("convolution total = %v, want 9", conv.Total())
	}
	if conv.Min() != 10 || conv.Max() != 12 {
		t.Errorf("convolution min/max = %d/%d, want 10/12", conv.Min(), conv.Max())
	}
	if conv.NumSamples() != 9 {
		t.Errorf("NumSamples = %d", conv.NumSamples())
	}
}

func TestFromSamplesBasics(t *testing.T) {
	if FromSamples(nil, 10) != nil {
		t.Error("empty samples should give nil")
	}
	h := FromSamples([]int{95, 103, 104, 119}, 10)
	if h.BucketWidth() != 10 {
		t.Error("width")
	}
	if h.Min() != 95 || h.Max() != 119 {
		t.Errorf("min/max = %d/%d", h.Min(), h.Max())
	}
	if h.Count(90) != 1 || h.Count(100) != 2 || h.Count(110) != 1 {
		t.Errorf("bucket counts wrong: %v %v %v", h.Count(90), h.Count(100), h.Count(110))
	}
	if h.Count(0) != 0 || h.Count(10000) != 0 {
		t.Error("out-of-range count should be 0")
	}
	// Mean of bucket midpoints: (95*1 + 105*2 + 115*1)/4 = 105.
	if got := h.Mean(); got != 105 {
		t.Errorf("Mean = %v, want 105", got)
	}
}

func TestBProportional(t *testing.T) {
	h := FromSamples([]int{10, 10, 10, 10}, 10) // one bucket [10,20) with mass 4
	if got := h.B(10, 20); got != 4 {
		t.Errorf("B full bucket = %v", got)
	}
	if got := h.B(10, 15); got != 2 {
		t.Errorf("B half bucket = %v", got)
	}
	if got := h.B(0, 100); got != 4 {
		t.Errorf("B superset = %v", got)
	}
	if got := h.B(20, 30); got != 0 {
		t.Errorf("B disjoint = %v", got)
	}
	if got := h.B(15, 15); got != 0 {
		t.Errorf("B empty range = %v", got)
	}
}

func TestConvolveIdentity(t *testing.T) {
	h := FromSamples([]int{5, 7}, 1)
	if got := h.Convolve(nil); got != h {
		t.Error("Convolve(nil) should return receiver")
	}
	var nilH *Histogram
	if got := nilH.Convolve(h); got != h {
		t.Error("nil.Convolve(h) should return h")
	}
}

func TestConvolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		n1, n2 := 1+rng.Intn(20), 1+rng.Intn(20)
		xs := make([]int, n1)
		ys := make([]int, n2)
		for i := range xs {
			xs[i] = rng.Intn(300)
		}
		for i := range ys {
			ys[i] = rng.Intn(300)
		}
		h := 5
		conv := FromSamples(xs, h).Convolve(FromSamples(ys, h))
		// Brute force: all pairwise bucket-index sums.
		want := map[int]float64{}
		for _, x := range xs {
			for _, y := range ys {
				want[x/h+y/h]++
			}
		}
		for b, w := range want {
			if got := conv.Count(b * h); got != w {
				t.Fatalf("trial %d: bucket %d = %v, want %v", trial, b, got, w)
			}
		}
		if conv.Total() != float64(n1*n2) {
			t.Fatalf("total = %v", conv.Total())
		}
	}
}

// TestConvolveAllMatchesFold: ConvolveAll over up to seven histograms, nil
// ones among them, some with empty buckets and some repeated, is the left
// fold of two-operand Convolve in every field and bucket bit, so the
// alternating buffers change nothing; one histogram comes back
// unchanged and none gives nil.
func TestConvolveAllMatchesFold(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 300; trial++ {
		hs := make([]*Histogram, rng.Intn(8))
		for i := range hs {
			switch {
			case rng.Intn(5) == 0:
				continue // nil
			case i > 0 && rng.Intn(6) == 0:
				hs[i] = hs[i-1]
				continue
			}
			xs := make([]int, 1+rng.Intn(30))
			spread := 1 + rng.Intn(400)
			for j := range xs {
				xs[j] = rng.Intn(spread)
			}
			hs[i] = FromSamples(xs, 10)
		}
		var want *Histogram
		for _, hg := range hs {
			want = want.Convolve(hg)
		}
		got := ConvolveAll(len(hs), func(i int) *Histogram { return hs[i] })
		if want == nil || got == nil {
			if want != got {
				t.Fatalf("trial %d: got %v, want %v", trial, got, want)
			}
			continue
		}
		if got.h != want.h || got.offset != want.offset || got.min != want.min || got.max != want.max ||
			got.n != want.n || math.Float64bits(got.total) != math.Float64bits(want.total) || len(got.counts) != len(want.counts) {
			t.Fatalf("trial %d: got %+v, want %+v", trial, got, want)
		}
		for b := range want.counts {
			if math.Float64bits(got.counts[b]) != math.Float64bits(want.counts[b]) {
				t.Fatalf("trial %d: bucket %d = %v, want %v", trial, b, got.counts[b], want.counts[b])
			}
		}
		nonNil := 0
		for _, hg := range hs {
			if hg != nil {
				nonNil++
			}
		}
		if nonNil == 1 && got != want {
			t.Fatalf("trial %d: a single histogram did not come back unchanged", trial)
		}
	}
}

// TestConvolveSampleCountSaturates: five sub-paths of 8 000 samples each
// multiply to 8 000⁵ ≈ 3.3·10¹⁹ > 2⁶³; the count saturates instead of
// wrapping, and stays saturated through a further fold.
func TestConvolveSampleCountSaturates(t *testing.T) {
	xs := make([]int, 8000)
	for i := range xs {
		xs[i] = 60 + i%40
	}
	part := FromSamples(xs, 10)
	var conv *Histogram
	for k := 1; k <= 6; k++ {
		conv = conv.Convolve(part)
		want := math.MaxInt
		if k <= 4 {
			want = int(math.Pow(8000, float64(k)))
		}
		if got := conv.NumSamples(); got != want {
			t.Fatalf("after %d folds NumSamples = %d, want %d", k, got, want)
		}
	}
}

func TestQuantileAndCDF(t *testing.T) {
	h := FromSamples([]int{10, 20, 30, 40}, 10)
	if got := h.CDF(50); got != 1 {
		t.Errorf("CDF(50) = %v", got)
	}
	if got := h.CDF(10); got != 0.25*0 { // [10,20) bucket mass not yet included at x=10
		t.Errorf("CDF(10) = %v", got)
	}
	med := h.Quantile(0.5)
	if med < 20 || med > 30 {
		t.Errorf("median = %v", med)
	}
	if q := h.Quantile(1.0); q < 40 || q > 50 {
		t.Errorf("q100 = %v", q)
	}
}

func TestLogLikelihood(t *testing.T) {
	// Concentrated histogram: high likelihood inside, floor outside.
	xs := make([]int, 100)
	for i := range xs {
		xs[i] = 100 + i%10
	}
	h := FromSamples(xs, 10)
	inside := h.LogLikelihood(105, 0.99, 0, 3600)
	outside := h.LogLikelihood(1000, 0.99, 0, 3600)
	if inside <= outside {
		t.Errorf("inside (%v) should beat outside (%v)", inside, outside)
	}
	// The smoothing floor: (1-gamma)*U never lets the density hit zero.
	wantFloor := math.Log(0.01 / 3600)
	if math.Abs(outside-wantFloor) > 1e-9 {
		t.Errorf("outside = %v, want floor %v", outside, wantFloor)
	}
	// In-bucket density: all mass is in [100,110), so mass fraction is 1.
	wantInside := math.Log(0.99*(1.0/10) + 0.01/3600)
	if math.Abs(inside-wantInside) > 1e-9 {
		t.Errorf("inside = %v, want %v", inside, wantInside)
	}
}

func TestConvolutionProperty(t *testing.T) {
	// Mean of convolution = sum of means; min/max add.
	f := func(raw1, raw2 []uint8) bool {
		if len(raw1) == 0 || len(raw2) == 0 {
			return true
		}
		xs := make([]int, len(raw1))
		ys := make([]int, len(raw2))
		for i, b := range raw1 {
			xs[i] = int(b)
		}
		for i, b := range raw2 {
			ys[i] = int(b)
		}
		h1, h2 := FromSamples(xs, 1), FromSamples(ys, 1)
		conv := h1.Convolve(h2)
		if conv.Min() != h1.Min()+h2.Min() || conv.Max() != h1.Max()+h2.Max() {
			return false
		}
		// With h=1 bucket means are exact up to the +0.5 midpoint shift.
		want := h1.Mean() + h2.Mean() - 0.5
		return math.Abs(conv.Mean()-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTodHistogram(t *testing.T) {
	h := NewTod(900) // 96 15-minute buckets, as in the paper's intro
	base := int64(1370304000)
	for i := 0; i < 10; i++ {
		h.Add(base + 8*3600)
	}
	for i := 0; i < 5; i++ {
		h.Add(base + 20*3600)
	}
	if h.Total() != 15 {
		t.Fatalf("Total = %d", h.Total())
	}
	if got := h.MassRange(8*3600, 8*3600+900); got != 10 {
		t.Errorf("morning bucket = %v", got)
	}
	if got := h.MassRange(0, 86400); got != 15 {
		t.Errorf("full day = %v", got)
	}
	if got := h.MassRange(8*3600, 8*3600+450); got != 5 {
		t.Errorf("half bucket = %v, want 5", got)
	}
	// Wrapping range 23:00 -> 09:00 catches the morning mass only.
	if got := h.MassRange(23*3600, 9*3600); got != 10 {
		t.Errorf("wrapped = %v, want 10", got)
	}
	// Negative timestamps land on a valid bucket.
	h.Add(-1)
	if h.Total() != 16 {
		t.Error("negative timestamp not recorded")
	}
	if h.SizeBytes() < 96*4 {
		t.Errorf("SizeBytes = %d", h.SizeBytes())
	}
}

func TestTodHistogramWidths(t *testing.T) {
	for _, w := range []int{60, 300, 600} {
		h := NewTod(w)
		if len(h.counts) != 86400/w {
			t.Errorf("width %d: %d buckets", w, len(h.counts))
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("bad width should panic")
		}
	}()
	NewTod(7)
}

// TestUnionEqualsFromSamples splits random sample sets into 1–5 parts —
// empty and single-sample parts included — and checks that the union of
// the parts' histograms is FromSamples of the whole, field for field.
func TestUnionEqualsFromSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, h := range []int{1, 10, 60} {
		for trial := 0; trial < 300; trial++ {
			xs := make([]int, 1+rng.Intn(200))
			base, spread := rng.Intn(5000), 1+rng.Intn([]int{5, 300, 20000}[trial%3])
			for i := range xs {
				xs[i] = base + rng.Intn(spread)
			}
			parts := make([][]int, 1+rng.Intn(5))
			rest, k0 := xs, 0
			if trial%4 == 0 && len(parts) >= 3 {
				// One part holds a single sample and the next none.
				parts[0], rest, k0 = xs[:1], xs[1:], 2
			}
			for _, x := range rest {
				k := k0 + rng.Intn(len(parts)-k0)
				parts[k] = append(parts[k], x)
			}
			var hs []*Histogram
			var cat []int
			for _, p := range parts {
				hs = append(hs, FromSamples(p, h))
				cat = append(cat, p...)
			}
			want, got := FromSamples(cat, h), Union(hs...)
			if got.h != want.h || got.offset != want.offset || len(got.counts) != len(want.counts) ||
				got.min != want.min || got.max != want.max || got.n != want.n || got.total != want.total {
				t.Fatalf("h=%d trial %d: union (off %d len %d min %d max %d n %d total %v) vs (off %d len %d min %d max %d n %d total %v)",
					h, trial, got.offset, len(got.counts), got.min, got.max, got.n, got.total,
					want.offset, len(want.counts), want.min, want.max, want.n, want.total)
			}
			for i := range want.counts {
				if got.counts[i] != want.counts[i] {
					t.Fatalf("h=%d trial %d: bucket %d: %v vs %v", h, trial, i, got.counts[i], want.counts[i])
				}
			}
		}
	}
	if Union() != nil || Union(nil, nil) != nil {
		t.Fatal("union of no samples is not nil")
	}
}
