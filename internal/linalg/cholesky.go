package linalg

import (
	"fmt"
	"math"
)

// Cholesky is the factorization A = L·Lᵀ of a symmetric positive
// definite matrix, the shape the regression normal matrix AᵀA always
// has when a window of observations is non-singular. Factoring once and
// back-substituting per right-hand side is what lets the shared-Gram
// window search solve all K metrics of a window for one O(L³)
// factorization instead of K Gaussian eliminations.
//
// The zero value is ready for Factorize; a factor can be re-used across
// factorizations of equal (or smaller) size without allocating, which
// is what the estimator's per-search scratch relies on.
type Cholesky struct {
	n int
	l []float64 // row-major lower triangle; entries above the diagonal unused
}

// cholPivotTol is the relative pivot floor: a diagonal pivot at or
// below cholPivotTol times the largest diagonal entry of the input is
// treated as (numerically) singular. The window search reacts to
// ErrSingular with the same tiny-ridge fallback the batch solver uses,
// so a conservative floor only costs a harmless 1e-8 regularization.
const cholPivotTol = 1e-12

// Factorize computes the Cholesky factor of a + ridge·I, leaving a
// untouched. It reuses the receiver's storage when the capacity allows,
// so steady-state refactorization is allocation-free. A non-square
// shape is an ErrShape; loss of positive definiteness (a singular or
// indefinite matrix) is an ErrSingular.
func (ch *Cholesky) Factorize(a *Matrix, ridge float64) error {
	if a.rows != a.cols {
		return fmt.Errorf("%w: Cholesky of %dx%d", ErrShape, a.rows, a.cols)
	}
	n := a.rows
	if cap(ch.l) < n*n {
		ch.l = make([]float64, n*n)
	}
	ch.n = n
	l := ch.l[:n*n]

	// Pivot floor scaled by the dominant diagonal entry (plus the ridge
	// the caller is already adding).
	var maxDiag float64
	for i := 0; i < n; i++ {
		if d := math.Abs(a.data[i*a.cols+i] + ridge); d > maxDiag {
			maxDiag = d
		}
	}
	tol := cholPivotTol * maxDiag
	if tol == 0 {
		tol = cholPivotTol
	}

	for i := 0; i < n; i++ {
		ai, li := a.data[i*a.cols:][:n], l[i*n:][:n]
		for j := 0; j <= i; j++ {
			lj := l[j*n:][:j+1]
			s := ai[j]
			if i == j {
				s += ridge
			}
			for k, v := range lj[:j] {
				s -= li[k] * v
			}
			if i == j {
				if s <= tol {
					ch.n = 0 // invalidate: a failed factor must not be solved against
					return ErrSingular
				}
				li[i] = math.Sqrt(s)
			} else {
				li[j] = s / lj[j]
			}
		}
	}
	return nil
}

// Size returns the dimension of the factored matrix (0 before the
// first successful Factorize).
func (ch *Cholesky) Size() int { return ch.n }

// Clone returns an independent copy of the factor, safe to retain
// after the receiver is refactored or recycled.
func (ch *Cholesky) Clone() *Cholesky {
	out := &Cholesky{n: ch.n, l: make([]float64, ch.n*ch.n)}
	copy(out.l, ch.l[:ch.n*ch.n])
	return out
}

// SolveVecInto solves (L·Lᵀ)·x = b into dst, which must have length n
// and may alias b. No allocation: this is the per-metric
// back-substitution of the shared-Gram solve.
func (ch *Cholesky) SolveVecInto(dst, b []float64) error {
	n := ch.n
	if n == 0 {
		return fmt.Errorf("%w: solve against an empty factor", ErrShape)
	}
	if len(b) != n || len(dst) != n {
		return fmt.Errorf("%w: %dx%d factor, rhs %d, dst %d", ErrShape, n, n, len(b), len(dst))
	}
	l := ch.l
	// Forward: L·y = b.
	for i := 0; i < n; i++ {
		li := l[i*n:][:i+1]
		s := b[i]
		for k, v := range li[:i] {
			s -= v * dst[k]
		}
		dst[i] = s / li[i]
	}
	// Backward: Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		s := dst[i]
		for k := i + 1; k < n; k++ {
			s -= l[k*n+i] * dst[k]
		}
		dst[i] = s / l[i*n+i]
	}
	return nil
}

// SolveVec solves (L·Lᵀ)·x = b into a fresh slice.
func (ch *Cholesky) SolveVec(b []float64) ([]float64, error) {
	out := make([]float64, len(b))
	if err := ch.SolveVecInto(out, b); err != nil {
		return nil, err
	}
	return out, nil
}

// QuadForm evaluates vᵀ·(L·Lᵀ)⁻¹·v = ‖L⁻¹v‖², the quadratic form of
// the prediction-interval width, with a single forward substitution.
// It allocates its own scratch, so one factor may serve concurrent
// callers.
func (ch *Cholesky) QuadForm(v []float64) (float64, error) {
	n := ch.n
	if n == 0 {
		return 0, fmt.Errorf("%w: quadratic form against an empty factor", ErrShape)
	}
	if len(v) != n {
		return 0, fmt.Errorf("%w: %dx%d factor, vector %d", ErrShape, n, n, len(v))
	}
	y := make([]float64, n)
	l := ch.l
	var quad float64
	for i := 0; i < n; i++ {
		s := v[i]
		for k := 0; k < i; k++ {
			s -= l[i*n+k] * y[k]
		}
		y[i] = s / l[i*n+i]
		quad += y[i] * y[i]
	}
	return quad, nil
}
