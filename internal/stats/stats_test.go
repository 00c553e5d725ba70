package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	m, err := Mean([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if m != 2.5 {
		t.Errorf("Mean = %v, want 2.5", m)
	}
	if _, err := Mean(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty mean: got %v, want ErrEmpty", err)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	v, err := Variance([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(v, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", v)
	}
	sd, err := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(sd, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", sd)
	}
}

func TestSSEAndSST(t *testing.T) {
	sse, err := SSE([]float64{1, 2, 3}, []float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if sse != 1 {
		t.Errorf("SSE = %v, want 1", sse)
	}
	sst, err := SST([]float64{1, 2, 3}) // mean 2 → 1+0+1
	if err != nil {
		t.Fatal(err)
	}
	if sst != 2 {
		t.Errorf("SST = %v, want 2", sst)
	}
	if _, err := SSE([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrLength) {
		t.Errorf("length mismatch: got %v, want ErrLength", err)
	}
}

func TestRSquared(t *testing.T) {
	// Perfect fit.
	r2, err := RSquared([]float64{1, 2, 3}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if r2 != 1 {
		t.Errorf("perfect fit R² = %v, want 1", r2)
	}
	// Fit equal to the mean gives R² = 0.
	r2, err = RSquared([]float64{1, 2, 3}, []float64{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r2, 0, 1e-12) {
		t.Errorf("mean fit R² = %v, want 0", r2)
	}
	// Constant responses.
	r2, err = RSquared([]float64{5, 5}, []float64{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if r2 != 1 {
		t.Errorf("exact constant fit R² = %v, want 1", r2)
	}
	r2, err = RSquared([]float64{5, 5}, []float64{4, 6})
	if err != nil {
		t.Fatal(err)
	}
	if r2 != 0 {
		t.Errorf("inexact constant fit R² = %v, want 0", r2)
	}
}

func TestMRE(t *testing.T) {
	// |1.1-1|/1 + |1.8-2|/2 = 0.1 + 0.1 → mean 0.1
	mre, err := MRE([]float64{1, 2}, []float64{1.1, 1.8})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(mre, 0.1, 1e-12) {
		t.Errorf("MRE = %v, want 0.1", mre)
	}
	// Zero actuals are skipped.
	mre, err = MRE([]float64{0, 2}, []float64{5, 2.2})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(mre, 0.1, 1e-12) {
		t.Errorf("MRE with zero actual = %v, want 0.1", mre)
	}
	if _, err := MRE([]float64{0}, []float64{1}); !errors.Is(err, ErrEmpty) {
		t.Errorf("all-zero actuals: got %v, want ErrEmpty", err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, tc := range []struct {
		q, want float64
	}{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75},
	} {
		got, err := Quantiles(xs, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got[0], tc.want, 1e-12) {
			t.Errorf("Quantiles(%v) = %v, want %v", tc.q, got[0], tc.want)
		}
	}
	if _, err := Quantiles(nil, 0.5); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty quantile: got %v, want ErrEmpty", err)
	}
	if _, err := Quantiles(xs, 1.5); err == nil {
		t.Error("out-of-range q accepted")
	}
	one, err := Quantiles([]float64{7}, 0.3)
	if err != nil || one[0] != 7 {
		t.Errorf("singleton quantile = %v, %v", one, err)
	}
}

func TestOnlineMatchesBatch(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	var o Online
	for _, x := range xs {
		o.Add(x)
	}
	bm, _ := Mean(xs)
	bv, _ := Variance(xs)
	if o.N() != len(xs) {
		t.Errorf("N = %d, want %d", o.N(), len(xs))
	}
	if !almostEqual(o.Mean(), bm, 1e-10) {
		t.Errorf("online mean %v != batch %v", o.Mean(), bm)
	}
	if !almostEqual(o.Variance(), bv, 1e-10) {
		t.Errorf("online variance %v != batch %v", o.Variance(), bv)
	}
	if !almostEqual(o.StdDev(), math.Sqrt(bv), 1e-10) {
		t.Errorf("online stddev %v != sqrt(batch) %v", o.StdDev(), math.Sqrt(bv))
	}
}

func TestOnlineSmall(t *testing.T) {
	var o Online
	if o.Variance() != 0 || o.Mean() != 0 {
		t.Error("zero-value Online not zeroed")
	}
	o.Add(5)
	if o.Variance() != 0 {
		t.Error("variance of one observation should be 0")
	}
}

func TestPropertyR2AtMostOne(t *testing.T) {
	f := func(actual, fitted []float64) bool {
		if len(actual) != len(fitted) || len(actual) == 0 {
			return true
		}
		// Bound magnitudes so SSE/SST stay finite; overflow to ±Inf
		// makes R² meaningless, which is not the property under test.
		for _, v := range append(append([]float64{}, actual...), fitted...) {
			if math.IsNaN(v) || math.Abs(v) > 1e150 {
				return true
			}
		}
		r2, err := RSquared(actual, fitted)
		if err != nil {
			return true
		}
		return r2 <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyOnlineMatchesBatch(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, v := range xs {
			if math.IsNaN(v) || math.Abs(v) > 1e6 {
				return true
			}
		}
		var o Online
		for _, x := range xs {
			o.Add(x)
		}
		bm, _ := Mean(xs)
		bv, _ := Variance(xs)
		scale := 1.0
		if bv > 1 {
			scale = bv
		}
		return almostEqual(o.Mean(), bm, 1e-6) && almostEqual(o.Variance(), bv, 1e-6*scale)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(100)
	same := true
	for i := 0; i < 10; i++ {
		if NewRNG(99).Normal(0, 1) != c.Normal(0, 1) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGDistributions(t *testing.T) {
	g := NewRNG(7)
	var o Online
	for i := 0; i < 20000; i++ {
		o.Add(g.Normal(10, 2))
	}
	if !almostEqual(o.Mean(), 10, 0.1) {
		t.Errorf("normal mean = %v, want ≈10", o.Mean())
	}
	if !almostEqual(o.StdDev(), 2, 0.1) {
		t.Errorf("normal stddev = %v, want ≈2", o.StdDev())
	}
	for i := 0; i < 1000; i++ {
		u := g.Uniform(3, 5)
		if u < 3 || u >= 5 {
			t.Fatalf("Uniform(3,5) out of range: %v", u)
		}
		if g.LogNormal(0, 0.5) <= 0 {
			t.Fatal("LogNormal produced non-positive value")
		}
		if e := g.Exponential(2); e < 0 {
			t.Fatalf("Exponential produced negative value: %v", e)
		}
	}
	var heads int
	for i := 0; i < 10000; i++ {
		if g.Bernoulli(0.3) {
			heads++
		}
	}
	if heads < 2700 || heads > 3300 {
		t.Errorf("Bernoulli(0.3) heads = %d / 10000", heads)
	}
	p := g.Perm(10)
	seen := make(map[int]bool, 10)
	for _, v := range p {
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Perm(10) is not a permutation: %v", p)
	}
}
