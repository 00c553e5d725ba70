package ml

import (
	"errors"
	"math"
	"testing"

	"repro/internal/regression"
	"repro/internal/stats"
)

// linearSamples generates n samples of c = 2 + 3x₁ − x₂ + N(0, noise).
func linearSamples(seed int64, n int, noise float64) []regression.Sample {
	rng := stats.NewRNG(seed)
	out := make([]regression.Sample, n)
	for i := range out {
		x1, x2 := rng.Uniform(0, 10), rng.Uniform(0, 10)
		out[i] = regression.Sample{
			X: []float64{x1, x2},
			C: 2 + 3*x1 - x2 + rng.Normal(0, noise),
		}
	}
	return out
}

func predictErr(t *testing.T, p Predictor, samples []regression.Sample) float64 {
	t.Helper()
	actual := make([]float64, len(samples))
	pred := make([]float64, len(samples))
	for i, s := range samples {
		actual[i] = s.C
		v, err := p.Predict(s.X)
		if err != nil {
			t.Fatal(err)
		}
		pred[i] = v
	}
	mre, err := stats.MRE(actual, pred)
	if err != nil {
		t.Fatal(err)
	}
	return mre
}

func TestLeastSquaresLearnsLinear(t *testing.T) {
	train := linearSamples(1, 50, 0.1)
	test := linearSamples(2, 50, 0.1)
	p, err := LeastSquares{}.Train(train)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "least-squares" {
		t.Errorf("Name = %q", p.Name())
	}
	if mre := predictErr(t, p, test); mre > 0.05 {
		t.Errorf("least-squares MRE = %v, want < 0.05", mre)
	}
}

func TestLeastSquaresTooFew(t *testing.T) {
	if _, err := (LeastSquares{}).Train(linearSamples(1, 2, 0)); err == nil {
		t.Error("trained on 2 samples for 2 features")
	}
}

func TestBaggingLearnsLinear(t *testing.T) {
	train := linearSamples(3, 60, 1)
	test := linearSamples(4, 60, 0)
	p, err := Bagging{Bags: 15, Seed: 1}.Train(train)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "bagging" {
		t.Errorf("Name = %q", p.Name())
	}
	if mre := predictErr(t, p, test); mre > 0.15 {
		t.Errorf("bagging MRE = %v, want < 0.15", mre)
	}
}

func TestBaggingDefaultsAndEmpty(t *testing.T) {
	if _, err := (Bagging{}).Train(nil); !errors.Is(err, ErrNoSamples) {
		t.Errorf("got %v, want ErrNoSamples", err)
	}
	// The default ensemble size (0 bags) must work.
	p, err := Bagging{Seed: 2}.Train(linearSamples(5, 30, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Predict([]float64{1, 1}); err != nil {
		t.Fatal(err)
	}
}

func TestBaggingReducesVariance(t *testing.T) {
	// Across many noisy resamples of the same generating process, the
	// spread of bagged predictions at a fixed point should not exceed
	// the spread of single-model predictions.
	var single, bagged stats.Online
	x := []float64{5, 5}
	for trial := 0; trial < 30; trial++ {
		train := linearSamples(int64(100+trial), 12, 8)
		ls, err := LeastSquares{}.Train(train)
		if err != nil {
			t.Fatal(err)
		}
		bg, err := Bagging{Bags: 20, Seed: int64(trial)}.Train(train)
		if err != nil {
			t.Fatal(err)
		}
		v1, err := ls.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := bg.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		single.Add(v1)
		bagged.Add(v2)
	}
	if bagged.Variance() > single.Variance()*1.5 {
		t.Errorf("bagging variance %v far exceeds single-model variance %v",
			bagged.Variance(), single.Variance())
	}
}

func TestMLPLearnsLinear(t *testing.T) {
	train := linearSamples(6, 200, 0.5)
	test := linearSamples(7, 100, 0)
	p, err := MLP{Hidden: 8, Epochs: 300, LearningRate: 0.02, Seed: 3}.Train(train)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "mlp" {
		t.Errorf("Name = %q", p.Name())
	}
	if mre := predictErr(t, p, test); mre > 0.2 {
		t.Errorf("mlp MRE = %v, want < 0.2", mre)
	}
}

func TestMLPLearnsNonlinear(t *testing.T) {
	// c = x² — linear models cannot fit this; the MLP should do clearly
	// better than least squares on in-range data.
	rng := stats.NewRNG(8)
	train := make([]regression.Sample, 300)
	for i := range train {
		x := rng.Uniform(-3, 3)
		train[i] = regression.Sample{X: []float64{x}, C: x * x}
	}
	test := make([]regression.Sample, 100)
	for i := range test {
		x := rng.Uniform(-2.5, 2.5)
		test[i] = regression.Sample{X: []float64{x}, C: x * x}
	}
	mlp, err := MLP{Hidden: 16, Epochs: 500, LearningRate: 0.02, Seed: 4}.Train(train)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := LeastSquares{}.Train(train)
	if err != nil {
		t.Fatal(err)
	}
	var mlpSSE, lsSSE float64
	for _, s := range test {
		mv, err := mlp.Predict(s.X)
		if err != nil {
			t.Fatal(err)
		}
		lv, err := ls.Predict(s.X)
		if err != nil {
			t.Fatal(err)
		}
		mlpSSE += (mv - s.C) * (mv - s.C)
		lsSSE += (lv - s.C) * (lv - s.C)
	}
	if mlpSSE >= lsSSE {
		t.Errorf("MLP SSE %v not better than least-squares SSE %v on x²", mlpSSE, lsSSE)
	}
}

func TestMLPValidation(t *testing.T) {
	if _, err := (MLP{}).Train(nil); !errors.Is(err, ErrNoSamples) {
		t.Errorf("got %v, want ErrNoSamples", err)
	}
	bad := []regression.Sample{{X: []float64{1}, C: 1}, {X: []float64{1, 2}, C: 1}}
	if _, err := (MLP{}).Train(bad); !errors.Is(err, regression.ErrDimension) {
		t.Errorf("got %v, want ErrDimension", err)
	}
	p, err := MLP{Seed: 1}.Train(linearSamples(9, 20, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Predict([]float64{1}); !errors.Is(err, regression.ErrDimension) {
		t.Errorf("predict wrong dim: got %v, want ErrDimension", err)
	}
}

func TestMLPDeterministic(t *testing.T) {
	train := linearSamples(10, 40, 1)
	p1, err := MLP{Seed: 7}.Train(train)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := MLP{Seed: 7}.Train(train)
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := p1.Predict([]float64{3, 3})
	v2, _ := p2.Predict([]float64{3, 3})
	if v1 != v2 {
		t.Errorf("same-seed MLPs disagree: %v vs %v", v1, v2)
	}
}

func TestBMLSelectsLinearFamilyOnLinearData(t *testing.T) {
	// Least squares and bagged least squares are near-equivalent on
	// clean linear data; either may win by a hair, but the MLP must not.
	train := linearSamples(11, 60, 0.2)
	p, sel, err := BML{Seed: 1}.TrainSelect(train)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Chosen == "mlp" {
		t.Errorf("BML chose mlp on clean linear data (cv errors %v)", sel.CVError)
	}
	if p.Name() != sel.Chosen {
		t.Errorf("predictor %q does not match selection %q", p.Name(), sel.Chosen)
	}
	if len(sel.CVError) != 3 {
		t.Errorf("CVError has %d entries, want 3", len(sel.CVError))
	}
}

func TestBMLPicksSmallestCVError(t *testing.T) {
	train := linearSamples(12, 50, 1)
	_, sel, err := BML{Seed: 2}.TrainSelect(train)
	if err != nil {
		t.Fatal(err)
	}
	chosenErr := sel.CVError[sel.Chosen]
	for name, e := range sel.CVError {
		if e < chosenErr {
			t.Errorf("candidate %q has smaller CV error (%v) than chosen %q (%v)",
				name, e, sel.Chosen, chosenErr)
		}
	}
}

func TestBMLTinyWindowFallback(t *testing.T) {
	// 4 samples with 2 features: CV splits drop below L+2 so candidates
	// fail per-fold; the fallback must still produce a model.
	train := linearSamples(13, 4, 0)
	p, err := BML{Seed: 3}.Train(train)
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.Predict([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(v) {
		t.Error("fallback model predicts NaN")
	}
}

func TestBMLEmpty(t *testing.T) {
	if _, err := (BML{}).Train(nil); !errors.Is(err, ErrNoSamples) {
		t.Errorf("got %v, want ErrNoSamples", err)
	}
}

func TestBMLName(t *testing.T) {
	if (BML{}).Name() != "bml" {
		t.Error("BML name wrong")
	}
}

func TestFoldSplitPartition(t *testing.T) {
	samples := linearSamples(14, 17, 0)
	const k = 3
	seen := 0
	for f := 0; f < k; f++ {
		train, test := foldSplit(samples, k, f)
		if len(train)+len(test) != len(samples) {
			t.Fatalf("fold %d loses samples: %d + %d != %d", f, len(train), len(test), len(samples))
		}
		seen += len(test)
	}
	if seen != len(samples) {
		t.Errorf("test folds cover %d samples, want %d", seen, len(samples))
	}
}

func TestCrossValidateDegenerate(t *testing.T) {
	if _, ok := crossValidate(LeastSquares{}, linearSamples(15, 2, 0), 2); ok {
		t.Error("crossValidate reported success on impossible splits")
	}
}
