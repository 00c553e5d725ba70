// Package ml implements the machine-learning baselines that the IReS
// Modelling module chooses among in the paper's evaluation: Least
// squared regression, Bagging predictors, and a Multilayer Perceptron
// (the WEKA learners named in Section 2.4), plus the "Best ML" (BML)
// selector that "tests many algorithms and the best model with the
// smallest error is selected".
//
// Everything is implemented on the standard library; the learners are
// deterministic given their seeds so experiments reproduce exactly.
package ml

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/regression"
	"repro/internal/stats"
)

// ErrNoSamples is returned when training is requested on no data.
var ErrNoSamples = errors.New("ml: no training samples")

// Predictor is a trained single-metric cost model.
type Predictor interface {
	// Predict returns the estimated cost for feature vector x.
	Predict(x []float64) (float64, error)
	// Name identifies the underlying algorithm (for reports).
	Name() string
}

// Learner trains Predictors from samples.
type Learner interface {
	// Train fits a model on the samples.
	Train(samples []regression.Sample) (Predictor, error)
	// Name identifies the algorithm.
	Name() string
}

// ---------------------------------------------------------------------------
// Least squared regression

// LeastSquares is ordinary least-squares MLR — the same model DREAM
// uses, but trained on whatever window the caller supplies rather than
// a dynamically sized one.
type LeastSquares struct{}

// Name implements Learner.
func (LeastSquares) Name() string { return "least-squares" }

// Train implements Learner.
func (LeastSquares) Train(samples []regression.Sample) (Predictor, error) {
	m, err := regression.Fit(samples, regression.FitOptions{})
	if err != nil {
		return nil, fmt.Errorf("ml: least-squares: %w", err)
	}
	return lsPredictor{m}, nil
}

type lsPredictor struct{ m *regression.Model }

func (p lsPredictor) Predict(x []float64) (float64, error) { return p.m.Predict(x) }
func (p lsPredictor) Name() string                         { return "least-squares" }

// ---------------------------------------------------------------------------
// Bagging predictors (Breiman 1996)

// Bagging trains Bags least-squares models on bootstrap resamples and
// averages their predictions.
type Bagging struct {
	// Bags is the ensemble size; defaults to 10.
	Bags int
	// Seed drives the bootstrap resampling.
	Seed int64
}

// Name implements Learner.
func (b Bagging) Name() string { return "bagging" }

// Train implements Learner.
func (b Bagging) Train(samples []regression.Sample) (Predictor, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	bags := b.Bags
	if bags <= 0 {
		bags = 10
	}
	rng := stats.NewRNG(b.Seed)
	members := make([]Predictor, 0, bags)
	// A bootstrap draw may be degenerate (e.g. one sample repeated);
	// those members are skipped. Training fails only if every draw is
	// degenerate.
	for i := 0; i < bags; i++ {
		boot := make([]regression.Sample, len(samples))
		for j := range boot {
			boot[j] = samples[rng.Intn(len(samples))]
		}
		m, err := LeastSquares{}.Train(boot)
		if err != nil {
			continue
		}
		members = append(members, m)
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("ml: bagging: every bootstrap member failed to train")
	}
	return baggingPredictor{members: members}, nil
}

type baggingPredictor struct{ members []Predictor }

func (p baggingPredictor) Name() string { return "bagging" }

func (p baggingPredictor) Predict(x []float64) (float64, error) {
	var s float64
	for _, m := range p.members {
		v, err := m.Predict(x)
		if err != nil {
			return 0, err
		}
		s += v
	}
	return s / float64(len(p.members)), nil
}

// ---------------------------------------------------------------------------
// Multilayer Perceptron

// MLP is a single-hidden-layer perceptron with tanh activations and a
// linear output, trained by stochastic gradient descent on z-scored
// inputs and outputs (the standard WEKA-style preprocessing).
type MLP struct {
	// Hidden is the hidden-layer width; defaults to 8.
	Hidden int
	// Epochs is the number of SGD passes; defaults to 200.
	Epochs int
	// LearningRate defaults to 0.01.
	LearningRate float64
	// Seed drives weight initialization and sample shuffling.
	Seed int64
}

// Name implements Learner.
func (MLP) Name() string { return "mlp" }

// Train implements Learner.
func (m MLP) Train(samples []regression.Sample) (Predictor, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	hidden := m.Hidden
	if hidden <= 0 {
		hidden = 8
	}
	epochs := m.Epochs
	if epochs <= 0 {
		epochs = 200
	}
	lr := m.LearningRate
	if lr <= 0 {
		lr = 0.01
	}
	dim := len(samples[0].X)
	for _, s := range samples {
		if len(s.X) != dim {
			return nil, regression.ErrDimension
		}
	}

	// z-score normalization of features and response.
	xMean := make([]float64, dim)
	xStd := make([]float64, dim)
	var yAcc stats.Online
	accs := make([]stats.Online, dim)
	for _, s := range samples {
		for j, v := range s.X {
			accs[j].Add(v)
		}
		yAcc.Add(s.C)
	}
	for j := range accs {
		xMean[j] = accs[j].Mean()
		xStd[j] = accs[j].StdDev()
		if xStd[j] == 0 {
			xStd[j] = 1
		}
	}
	yMean, yStd := yAcc.Mean(), yAcc.StdDev()
	if yStd == 0 {
		yStd = 1
	}

	rng := stats.NewRNG(m.Seed)
	p := &mlpPredictor{
		dim: dim, hidden: hidden,
		w1:    make([]float64, hidden*dim),
		b1:    make([]float64, hidden),
		w2:    make([]float64, hidden),
		xMean: xMean, xStd: xStd, yMean: yMean, yStd: yStd,
	}
	// Xavier-style initialization keeps tanh units out of saturation.
	scale1 := math.Sqrt(1.0 / float64(dim))
	for i := range p.w1 {
		p.w1[i] = rng.Normal(0, scale1)
	}
	scale2 := math.Sqrt(1.0 / float64(hidden))
	for i := range p.w2 {
		p.w2[i] = rng.Normal(0, scale2)
	}

	zx := make([]float64, dim)
	hAct := make([]float64, hidden)
	for epoch := 0; epoch < epochs; epoch++ {
		for _, idx := range rng.Perm(len(samples)) {
			s := samples[idx]
			for j := range zx {
				zx[j] = (s.X[j] - xMean[j]) / xStd[j]
			}
			zy := (s.C - yMean) / yStd

			// Forward pass.
			out := p.b2
			for hI := 0; hI < hidden; hI++ {
				a := p.b1[hI]
				row := p.w1[hI*dim : (hI+1)*dim]
				for j, v := range zx {
					a += row[j] * v
				}
				hAct[hI] = math.Tanh(a)
				out += p.w2[hI] * hAct[hI]
			}

			// Backward pass (squared error).
			dOut := out - zy
			p.b2 -= lr * dOut
			for hI := 0; hI < hidden; hI++ {
				dW2 := dOut * hAct[hI]
				dH := dOut * p.w2[hI] * (1 - hAct[hI]*hAct[hI])
				p.w2[hI] -= lr * dW2
				p.b1[hI] -= lr * dH
				row := p.w1[hI*dim : (hI+1)*dim]
				for j, v := range zx {
					row[j] -= lr * dH * v
				}
			}
		}
	}
	return p, nil
}

type mlpPredictor struct {
	dim, hidden int
	w1          []float64 // hidden×dim, row-major
	b1          []float64
	w2          []float64
	b2          float64
	xMean, xStd []float64
	yMean, yStd float64
}

func (p *mlpPredictor) Name() string { return "mlp" }

func (p *mlpPredictor) Predict(x []float64) (float64, error) {
	if len(x) != p.dim {
		return 0, regression.ErrDimension
	}
	out := p.b2
	for hI := 0; hI < p.hidden; hI++ {
		a := p.b1[hI]
		row := p.w1[hI*p.dim : (hI+1)*p.dim]
		for j, v := range x {
			a += row[j] * (v - p.xMean[j]) / p.xStd[j]
		}
		out += p.w2[hI] * math.Tanh(a)
	}
	return out*p.yStd + p.yMean, nil
}
