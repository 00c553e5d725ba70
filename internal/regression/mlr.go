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
// booleans or hundred-megabyte data sizes. Both the batch and the
// incremental solver use the same rule so their fallback behavior is
// identical.
const RidgeFallback = 1e-8

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
	// AdjustedR2 penalizes R2 for the number of predictors.
	AdjustedR2 float64
	// SSE and SST are the error decomposition on the training samples.
	SSE float64
	SST float64
	// N is the number of training samples; L the number of variables.
	N, L int
	// Ridge is the diagonal regularizer that was needed to make the
	// normal equations solvable (0 for a plain OLS fit).
	Ridge float64
	// sigma2 is the residual variance estimate SSE/(N−L−1); chol the
	// Cholesky factor of the solved normal matrix, both retained for
	// prediction intervals. The factor replaces the old eagerly-computed
	// (AᵀA)⁻¹: the interval's quadratic form needs one triangular solve,
	// not a whole inverse, and plan sweeps never ask for intervals on
	// most models they fit. It is nil when the fit needed the automatic
	// ridge fallback (the unregularized normal matrix carries no usable
	// interval geometry, matching the old nil-inverse behavior).
	sigma2 float64
	chol   *linalg.Cholesky
}

// Predict evaluates the fitted equation ĉ = β̂₀ + Σ β̂ᵢxᵢ (eq. 6).
func (m *Model) Predict(x []float64) (float64, error) {
	if len(x) != m.L {
		return 0, fmt.Errorf("%w: got %d features, model has %d", ErrDimension, len(x), m.L)
	}
	return m.predict(x), nil
}

// predict is eq. 6 for an x of L features: intercept, then terms in order.
func (m *Model) predict(x []float64) float64 {
	c := m.Beta[0]
	for i, xi := range x {
		c += m.Beta[i+1] * xi
	}
	return c
}

// PredictRows is Predict over the rows of xs — dim features each, back
// to back — storing row i's value at dst[i*stride], so the models of
// several metrics can fill one row-major matrix. The width is checked
// once, not per row: a dim that is not the model's L, or xs that is not
// whole rows, is ErrDimension with nothing written. Every value is
// Predict's bit for bit: four rows advance together, each in its own
// accumulator summed in Predict's order, so the adds of one row wait on
// three other rows' and not on each other — no fused multiply-add, no
// reassociation.
func (m *Model) PredictRows(dst []float64, stride int, xs []float64, dim int) error {
	l := m.L
	if dim != l || l < 1 || len(xs)%l != 0 {
		return fmt.Errorf("%w: got %d values in rows of %d features, model has %d", ErrDimension, len(xs), dim, l)
	}
	n := len(xs) / l
	b0, beta := m.Beta[0], m.Beta[1:1+l]
	i := 0
	for ; i+4 <= n; i += 4 {
		r := xs[i*l : (i+4)*l]
		r0, r1, r2, r3 := r[:l], r[l:][:l], r[2*l:][:l], r[3*l:][:l]
		c0, c1, c2, c3 := b0, b0, b0, b0
		for j, b := range beta {
			c0 += b * r0[j]
			c1 += b * r1[j]
			c2 += b * r2[j]
			c3 += b * r3[j]
		}
		o := i * stride
		dst[o], dst[o+stride], dst[o+2*stride], dst[o+3*stride] = c0, c1, c2, c3
	}
	for ; i < n; i++ {
		dst[i*stride] = m.predict(xs[i*l : (i+1)*l])
	}
	return nil
}

// FitOptions tunes the solver.
type FitOptions struct {
	// Ridge adds λ·I to AᵀA before solving. Zero requests plain OLS
	// with an automatic tiny-λ retry if the window is singular
	// (collinear observations are common in small DREAM windows).
	Ridge float64
	// DisableRidgeFallback fails hard on singular windows instead of
	// retrying with regularization.
	DisableRidgeFallback bool
}

// Fit solves the normal equations over the given samples.
func Fit(samples []Sample, opts FitOptions) (*Model, error) {
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
	// Cholesky factorization both solves the system and hands the
	// prediction-interval path its factor for free.
	ridge := opts.Ridge
	fellBack := false
	ch := &linalg.Cholesky{}
	err = ch.Factorize(ata, ridge)
	if errors.Is(err, linalg.ErrSingular) && ridge == 0 && !opts.DisableRidgeFallback {
		// Singular window: regularize just enough to get a solution.
		ridge = fallbackRidge(ata)
		fellBack = true
		err = ch.Factorize(ata, ridge)
	}
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
	sse, err := stats.SSE(c, fitted)
	if err != nil {
		return nil, err
	}
	sst, err := stats.SST(c)
	if err != nil {
		return nil, err
	}
	r2, err := stats.RSquared(c, fitted)
	if err != nil {
		return nil, err
	}

	m := &Model{
		Beta:  beta,
		R2:    r2,
		SSE:   sse,
		SST:   sst,
		N:     len(samples),
		L:     l,
		Ridge: ridge,
	}
	if dof := m.N - m.L - 1; dof > 0 && m.N > 1 {
		m.AdjustedR2 = 1 - (1-r2)*float64(m.N-1)/float64(dof)
		m.sigma2 = sse / float64(dof)
	} else {
		m.AdjustedR2 = r2
	}
	if !fellBack {
		m.chol = ch
	}
	return m, nil
}

// PredictWithInterval returns the point estimate plus the standard
// error of a *new* observation at x: sqrt(σ̂²·(1 + xᵀ(AᵀA)⁻¹x)). The
// caller multiplies by the desired quantile (≈2 for a 95% band). A zero
// standard error means the model had no residual degrees of freedom or
// the normal matrix was not invertible; treat such intervals as
// unknown-width rather than perfectly tight. The quadratic form is
// evaluated from the stored Cholesky factor (one triangular solve), so
// models that never serve intervals never pay for an inverse.
func (m *Model) PredictWithInterval(x []float64) (pred, stderr float64, err error) {
	pred, err = m.Predict(x)
	if err != nil {
		return 0, 0, err
	}
	if m.sigma2 <= 0 || m.chol == nil {
		return pred, 0, nil
	}
	aug := make([]float64, len(x)+1)
	aug[0] = 1
	copy(aug[1:], x)
	quad, err := m.chol.QuadForm(aug)
	if err != nil {
		return 0, 0, err
	}
	if quad < 0 {
		quad = 0 // numerical guard: (AᵀA)⁻¹ is PSD in exact arithmetic
	}
	return pred, math.Sqrt(m.sigma2 * (1 + quad)), nil
}
