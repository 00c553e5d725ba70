// Package regression implements the Multiple Linear Regression model of
// the paper's Section 2.5: the cost function c = β₀ + β₁x₁ + … + β_L x_L + ϵ,
// fitted by ordinary least squares through the normal equations
// B = (AᵀA)⁻¹AᵀC (eq. 12), with the coefficient of determination
// R² = 1 − SSE/SST (eq. 14) as the fit-quality signal DREAM drives on.
package regression

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/stats"
)

// MinObservations returns the smallest usable dataset size for a model
// with l variables. The paper (Section 3, citing Soong) uses M = L + 2:
// one more observation than parameters so SSE has a degree of freedom.
func MinObservations(l int) int { return l + 2 }

// ErrTooFewObservations is returned when a fit is requested with fewer
// than MinObservations samples.
var ErrTooFewObservations = errors.New("regression: too few observations")

// ErrDimension is returned when samples disagree on feature dimension.
var ErrDimension = errors.New("regression: inconsistent feature dimensions")

// RidgeFallback is the automatic diagonal regularizer applied when a
// window of observations makes the normal matrix singular (collinear
// observations are common in small DREAM windows), as a fraction of
// the normal matrix's dominant diagonal entry: scaling keeps the
// fallback meaningful — and solvable — whether the features are unit
// booleans or hundred-megabyte data sizes.
const RidgeFallback = 1e-8

// factorize factors the normal matrix ata into ch, retrying once with
// the scaled RidgeFallback when ata is singular, and returns the ridge
// it took. The batch and the incremental solver both factor through
// it, so their fallback behavior is identical.
func factorize(ch *linalg.Cholesky, ata *linalg.Matrix) (float64, error) {
	err := ch.Factorize(ata, 0)
	if !errors.Is(err, linalg.ErrSingular) {
		return 0, err
	}
	ridge := fallbackRidge(ata)
	return ridge, ch.Factorize(ata, ridge)
}

// fallbackRidge returns the scaled automatic regularizer for a
// singular normal matrix.
func fallbackRidge(ata *linalg.Matrix) float64 {
	var maxDiag float64
	for i := 0; i < ata.Rows(); i++ {
		if d := math.Abs(ata.At(i, i)); d > maxDiag {
			maxDiag = d
		}
	}
	if maxDiag < 1 {
		maxDiag = 1
	}
	return RidgeFallback * maxDiag
}

// Sample pairs a feature vector x with an observed cost c.
type Sample struct {
	X []float64 // independent variables (data sizes, node counts, …)
	C float64   // observed cost (time, money, energy, …)
}

// Model is a fitted MLR model.
type Model struct {
	// Beta holds the fitted coefficients [β̂₀, β̂₁, …, β̂_L]; Beta[0] is
	// the intercept.
	Beta []float64
	// R2 is the coefficient of determination on the training samples.
	R2 float64
	// N is the number of training samples; L the number of variables.
	N, L int
	// Ridge is the diagonal regularizer that was needed to make the
	// normal equations solvable (0 for a plain OLS fit).
	Ridge float64
}

// Predict evaluates the fitted equation ĉ = β̂₀ + Σ β̂ᵢxᵢ (eq. 6).
func (m *Model) Predict(x []float64) (float64, error) {
	if len(x) != m.L {
		return 0, fmt.Errorf("%w: got %d features, model has %d", ErrDimension, len(x), m.L)
	}
	// Intercept, then terms in order.
	c := m.Beta[0]
	for i, xi := range x {
		c += m.Beta[i+1] * xi
	}
	return c, nil
}

// FitOptions is empty, kept only because the frozen bench/ calls
// IncrementalFitter.Solve with it; ROADMAP 1(a) drops it with the next
// benchmark PR.
type FitOptions struct{}

// Fit solves the normal equations over the given samples. A singular
// window (collinear observations are common in small DREAM windows)
// retries once with the RidgeFallback regularizer.
func Fit(samples []Sample) (*Model, error) {
	if len(samples) == 0 {
		return nil, ErrTooFewObservations
	}
	l := len(samples[0].X)
	if len(samples) < MinObservations(l) {
		return nil, fmt.Errorf("%w: have %d, need at least %d for %d variables",
			ErrTooFewObservations, len(samples), MinObservations(l), l)
	}
	for i, s := range samples {
		if len(s.X) != l {
			return nil, fmt.Errorf("%w: sample %d has %d features, want %d", ErrDimension, i, len(s.X), l)
		}
	}

	// Design matrix A (paper eq. 8) with a leading column of ones, and
	// response vector C (eq. 9).
	a := linalg.New(len(samples), l+1)
	c := make([]float64, len(samples))
	for i, s := range samples {
		a.Set(i, 0, 1)
		for j, x := range s.X {
			a.Set(i, j+1, x)
		}
		c[i] = s.C
	}

	at := a.T()
	ata, err := at.Mul(a)
	if err != nil {
		return nil, err
	}
	atc, err := at.MulVec(c)
	if err != nil {
		return nil, err
	}

	// The normal matrix is SPD whenever the window is non-singular, so a
	// Cholesky factorization solves the system.
	ch := &linalg.Cholesky{}
	ridge, err := factorize(ch, ata)
	if err != nil {
		return nil, err
	}
	beta, err := ch.SolveVec(atc)
	if err != nil {
		return nil, err
	}

	fitted, err := a.MulVec(beta)
	if err != nil {
		return nil, err
	}
	r2, err := stats.RSquared(c, fitted)
	if err != nil {
		return nil, err
	}
	return &Model{Beta: beta, R2: r2, N: len(samples), L: l, Ridge: ridge}, nil
}
