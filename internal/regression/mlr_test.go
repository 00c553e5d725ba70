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
		model, err := Fit(paperTable2[:m])
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
	m, err := Fit(samples)
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
	m, err := Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Beta[0]-10) > 0.5 || math.Abs(m.Beta[1]-0.5) > 0.01 {
		t.Errorf("β = %v, want ≈[10 0.5]", m.Beta)
	}
	if m.R2 < 0.99 {
		t.Errorf("R² = %v, want > 0.99 on low-noise data", m.R2)
	}
}

func TestFitTooFewObservations(t *testing.T) {
	samples := []Sample{
		{X: []float64{1, 2}, C: 1},
		{X: []float64{2, 3}, C: 2},
		{X: []float64{3, 4}, C: 3},
	}
	if _, err := Fit(samples); !errors.Is(err, ErrTooFewObservations) {
		t.Fatalf("got %v, want ErrTooFewObservations", err)
	}
	if _, err := Fit(nil); !errors.Is(err, ErrTooFewObservations) {
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
	if _, err := Fit(samples); !errors.Is(err, ErrDimension) {
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
	m, err := Fit(samples)
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

func TestPredictDimensionError(t *testing.T) {
	m := &Model{Beta: []float64{1, 2}, L: 1}
	if _, err := m.Predict([]float64{1, 2}); !errors.Is(err, ErrDimension) {
		t.Fatalf("got %v, want ErrDimension", err)
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
		m, err := Fit(samples)
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
		m, err := Fit(samples)
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
