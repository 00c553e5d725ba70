package regression

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// paperTable2 is the exact 10-observation, 2-variable dataset published
// in the paper's Table 2, used there to motivate DREAM's R²-driven
// window sizing. Fitting the first M rows must reproduce the published
// R² column.
var paperTable2 = []Sample{
	{X: []float64{0.4916, 0.2977}, C: 20.640},
	{X: []float64{0.6313, 0.0482}, C: 15.557},
	{X: []float64{0.9481, 0.8232}, C: 20.971},
	{X: []float64{0.4855, 2.7056}, C: 24.878},
	{X: []float64{0.0125, 2.7268}, C: 23.274},
	{X: []float64{0.9029, 2.6456}, C: 30.216},
	{X: []float64{0.7233, 3.0640}, C: 29.978},
	{X: []float64{0.8749, 4.2847}, C: 31.702},
	{X: []float64{0.3354, 2.1082}, C: 20.860},
	{X: []float64{0.8521, 4.8217}, C: 32.836},
}

// paperTable2R2 is the published R² for M = 4 … 10.
var paperTable2R2 = map[int]float64{
	4:  0.7571,
	5:  0.7705,
	6:  0.8371,
	7:  0.8788,
	8:  0.8876,
	9:  0.8751,
	10: 0.8945,
}

func TestFitReproducesPaperTable2(t *testing.T) {
	for m := 4; m <= 10; m++ {
		model, err := Fit(paperTable2[:m], FitOptions{})
		if err != nil {
			t.Fatalf("M=%d: %v", m, err)
		}
		want := paperTable2R2[m]
		if math.Abs(model.R2-want) > 5e-4 {
			t.Errorf("M=%d: R² = %.4f, paper reports %.4f", m, model.R2, want)
		}
	}
}

func TestFitRecoversKnownCoefficients(t *testing.T) {
	// c = 3 + 2x₁ − x₂ exactly (no noise): the fit must be exact.
	rng := stats.NewRNG(11)
	var samples []Sample
	for i := 0; i < 40; i++ {
		x1, x2 := rng.Uniform(0, 10), rng.Uniform(0, 10)
		samples = append(samples, Sample{X: []float64{x1, x2}, C: 3 + 2*x1 - x2})
	}
	m, err := Fit(samples, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, -1}
	for i, w := range want {
		if math.Abs(m.Beta[i]-w) > 1e-8 {
			t.Errorf("β[%d] = %v, want %v", i, m.Beta[i], w)
		}
	}
	if m.R2 < 1-1e-10 {
		t.Errorf("noise-free fit R² = %v, want 1", m.R2)
	}
	pred, err := m.Predict([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred-4) > 1e-8 {
		t.Errorf("Predict(1,1) = %v, want 4", pred)
	}
}

func TestFitWithNoise(t *testing.T) {
	rng := stats.NewRNG(5)
	var samples []Sample
	for i := 0; i < 500; i++ {
		x := rng.Uniform(0, 100)
		samples = append(samples, Sample{X: []float64{x}, C: 10 + 0.5*x + rng.Normal(0, 1)})
	}
	m, err := Fit(samples, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Beta[0]-10) > 0.5 || math.Abs(m.Beta[1]-0.5) > 0.01 {
		t.Errorf("β = %v, want ≈[10 0.5]", m.Beta)
	}
	if m.R2 < 0.99 {
		t.Errorf("R² = %v, want > 0.99 on low-noise data", m.R2)
	}
	if m.AdjustedR2 > m.R2 {
		t.Errorf("adjusted R² %v exceeds R² %v", m.AdjustedR2, m.R2)
	}
}

func TestFitTooFewObservations(t *testing.T) {
	samples := []Sample{
		{X: []float64{1, 2}, C: 1},
		{X: []float64{2, 3}, C: 2},
		{X: []float64{3, 4}, C: 3},
	}
	if _, err := Fit(samples, FitOptions{}); !errors.Is(err, ErrTooFewObservations) {
		t.Fatalf("got %v, want ErrTooFewObservations", err)
	}
	if _, err := Fit(nil, FitOptions{}); !errors.Is(err, ErrTooFewObservations) {
		t.Fatalf("nil samples: got %v, want ErrTooFewObservations", err)
	}
}

func TestFitDimensionMismatch(t *testing.T) {
	samples := []Sample{
		{X: []float64{1, 2}, C: 1},
		{X: []float64{2}, C: 2},
		{X: []float64{3, 4}, C: 3},
		{X: []float64{4, 5}, C: 4},
	}
	if _, err := Fit(samples, FitOptions{}); !errors.Is(err, ErrDimension) {
		t.Fatalf("got %v, want ErrDimension", err)
	}
}

func TestFitSingularFallsBackToRidge(t *testing.T) {
	// x₂ = 2x₁ exactly: AᵀA is singular, the ridge fallback must kick in.
	var samples []Sample
	for i := 1; i <= 8; i++ {
		x := float64(i)
		samples = append(samples, Sample{X: []float64{x, 2 * x}, C: 5 * x})
	}
	m, err := Fit(samples, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Ridge == 0 {
		t.Error("expected ridge fallback on collinear data")
	}
	pred, err := m.Predict([]float64{3, 6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred-15) > 0.1 {
		t.Errorf("ridge prediction = %v, want ≈15", pred)
	}
}

func TestFitSingularHardFailure(t *testing.T) {
	var samples []Sample
	for i := 1; i <= 8; i++ {
		x := float64(i)
		samples = append(samples, Sample{X: []float64{x, 2 * x}, C: 5 * x})
	}
	if _, err := Fit(samples, FitOptions{DisableRidgeFallback: true}); err == nil {
		t.Fatal("expected error with ridge fallback disabled")
	}
}

func TestExplicitRidge(t *testing.T) {
	rng := stats.NewRNG(3)
	var samples []Sample
	for i := 0; i < 30; i++ {
		x := rng.Uniform(0, 10)
		samples = append(samples, Sample{X: []float64{x}, C: 2 * x})
	}
	m, err := Fit(samples, FitOptions{Ridge: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Ridge != 0.1 {
		t.Errorf("Ridge = %v, want 0.1", m.Ridge)
	}
}

func TestPredictDimensionError(t *testing.T) {
	m := &Model{Beta: []float64{1, 2}, L: 1}
	if _, err := m.Predict([]float64{1, 2}); !errors.Is(err, ErrDimension) {
		t.Fatalf("got %v, want ErrDimension", err)
	}
}

// PredictRows writes Predict's values at the stride it is given and
// leaves the slots between them alone; what it cannot read as whole
// rows of L is ErrDimension with dst untouched.
func TestPredictRows(t *testing.T) {
	m := &Model{Beta: []float64{0.5, 2, -3}, L: 2}
	xs := []float64{1, 1, 2, 0, 0, 2, -1, -1, 4, 4, 1e300, 1e300, 0.1, 0.2} // 7 rows: a body and a tail of 3
	dst := make([]float64, 3*6+1)
	for i := range dst {
		dst[i] = -7
	}
	if err := m.PredictRows(dst, 3, xs, 2); err != nil {
		t.Fatal(err)
	}
	for i, got := range dst {
		want := -7.0
		if i%3 == 0 {
			want, _ = m.Predict(xs[i/3*2 : i/3*2+2])
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("dst[%d] = %v, want %v", i, got, want)
		}
	}
	if err := m.PredictRows(nil, 1, nil, 2); err != nil {
		t.Errorf("no rows: %v", err)
	}
	for _, tc := range []struct {
		name   string
		m      *Model
		dst    []float64
		stride int
		xs     []float64
		dim    int
	}{
		{"another width", m, dst, 3, xs[:12], 3},
		{"a trailing partial row", m, dst, 3, xs[:13], 2},
		{"a model of no features", &Model{Beta: []float64{1}}, dst, 1, nil, 0},
	} {
		for i := range dst {
			dst[i] = -7
		}
		if err := tc.m.PredictRows(tc.dst, tc.stride, tc.xs, tc.dim); !errors.Is(err, ErrDimension) {
			t.Errorf("%s: got %v, want ErrDimension", tc.name, err)
		}
		for i, v := range dst {
			if v != -7 {
				t.Errorf("%s: dst[%d] written", tc.name, i)
			}
		}
	}
}

func TestMinObservations(t *testing.T) {
	for l := 1; l < 10; l++ {
		if got := MinObservations(l); got != l+2 {
			t.Errorf("MinObservations(%d) = %d, want %d", l, got, l+2)
		}
	}
}

// TestPropertyR2NonDecreasingWithPerfectModel: adding samples generated
// by the true linear model keeps R² at 1.
func TestPropertyPerfectModelAlwaysR2One(t *testing.T) {
	rng := stats.NewRNG(21)
	f := func(nRaw uint8, b0, b1 float64) bool {
		if math.IsNaN(b0) || math.IsNaN(b1) || math.Abs(b0) > 1e6 || math.Abs(b1) > 1e6 {
			return true
		}
		n := int(nRaw%30) + 3 // ≥ MinObservations(1)
		samples := make([]Sample, n)
		for i := range samples {
			x := rng.Uniform(0, 100)
			samples[i] = Sample{X: []float64{x}, C: b0 + b1*x}
		}
		m, err := Fit(samples, FitOptions{})
		if err != nil {
			return false
		}
		return m.R2 > 1-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: fitted R² never exceeds 1 and the model reproduces training
// responses at least as well as the mean predictor.
func TestPropertyR2Bounds(t *testing.T) {
	rng := stats.NewRNG(33)
	f := func(nRaw uint8, noise float64) bool {
		if math.IsNaN(noise) {
			return true
		}
		sigma := math.Mod(math.Abs(noise), 5)
		n := int(nRaw%40) + 4
		samples := make([]Sample, n)
		for i := range samples {
			x1 := rng.Uniform(0, 10)
			x2 := rng.Uniform(0, 10)
			samples[i] = Sample{X: []float64{x1, x2}, C: 1 + x1 + x2 + rng.Normal(0, sigma)}
		}
		m, err := Fit(samples, FitOptions{})
		if err != nil {
			return true // singular tiny windows are allowed to fail
		}
		// OLS minimizes SSE, so R² ≥ 0 on training data (mean predictor
		// is in the hypothesis space via β = [mean, 0, 0]).
		return m.R2 <= 1+1e-9 && m.R2 >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestPredictWithInterval(t *testing.T) {
	rng := stats.NewRNG(17)
	var samples []Sample
	for i := 0; i < 60; i++ {
		x := rng.Uniform(0, 10)
		samples = append(samples, Sample{X: []float64{x}, C: 5 + 2*x + rng.Normal(0, 1)})
	}
	m, err := Fit(samples, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Interior point: stderr close to the noise sigma.
	pred, se, err := m.PredictWithInterval([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred-15) > 1 {
		t.Errorf("pred = %v, want ≈15", pred)
	}
	if se < 0.7 || se > 1.5 {
		t.Errorf("interior stderr = %v, want ≈1", se)
	}
	// Extrapolation point: wider interval.
	_, seFar, err := m.PredictWithInterval([]float64{50})
	if err != nil {
		t.Fatal(err)
	}
	if seFar <= se {
		t.Errorf("extrapolation stderr %v not wider than interior %v", seFar, se)
	}
	// Coverage: ~95% of fresh observations inside ±2σ̂.
	inside := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		x := rng.Uniform(0, 10)
		truth := 5 + 2*x + rng.Normal(0, 1)
		p, s, err := m.PredictWithInterval([]float64{x})
		if err != nil {
			t.Fatal(err)
		}
		if truth >= p-2*s && truth <= p+2*s {
			inside++
		}
	}
	if frac := float64(inside) / trials; frac < 0.90 || frac > 0.995 {
		t.Errorf("±2σ coverage = %v, want ≈0.95", frac)
	}
	// Dimension error propagates.
	if _, _, err := m.PredictWithInterval([]float64{1, 2}); err == nil {
		t.Error("wrong dimension accepted")
	}
}

func TestPredictWithIntervalDegenerate(t *testing.T) {
	// Minimal window: zero residual dof → stderr 0 (unknown), not NaN.
	samples := []Sample{
		{X: []float64{1}, C: 1},
		{X: []float64{2}, C: 2},
		{X: []float64{3}, C: 3.1},
	}
	m, err := Fit(samples, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, se, err := m.PredictWithInterval([]float64{2})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(se) {
		t.Error("stderr is NaN on degenerate fit")
	}
}
