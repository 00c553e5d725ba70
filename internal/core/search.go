package core

import (
	"fmt"

	"repro/internal/regression"
)

// The incremental window search.
//
// Algorithm 1 grows a most-recent window until every metric's fit
// reaches the required R². Two facts make a growth step cheap: the
// m×(L+1) design matrix is identical across all K metrics of a window,
// and a window of size m+1 is the size-m window plus exactly one older
// observation. One shared-Gram incremental fitter exploits both:
//
//   - one fitter carries AᵀA and all K right-hand sides, so a growth
//     step is a single rank-1 update (order-independent Gram sums make
//     "the window grew at its old end" a plain AddObservation);
//   - each window size factors the Gram once (Cholesky) and
//     back-substitutes K times, with SSE derived from βᵀ(Aᵀc) so R²
//     needs no second pass over the window.
//
// Total: O(M·L² + M·(L³ + K·L²)) per search — linear in the window
// (a from-scratch fit per step and metric would be O(M²·L²·K)), and no
// steady-state allocation thanks to the estimator's fitter pool: the
// models go into the windowFit the caller hands in.

// fitterFor hands out a pooled fitter reshaped for the snapshot's
// dimensions. Callers must return it with e.fitters.Put when the search
// is done (models materialized), never before.
func (e *Estimator) fitterFor(l, k int) *regression.IncrementalFitter {
	if f, ok := e.fitters.Get().(*regression.IncrementalFitter); ok {
		f.Reset(l, k)
		return f
	}
	return regression.NewIncrementalFitter(l, k)
}

// searchWindowIncremental runs Algorithm 1's window-growth loop by
// feeding observations into one shared-Gram fitter as the window grows,
// and writes the result into fit.
func (e *Estimator) searchWindowIncremental(s *Snapshot, minM, mmax int, fit *windowFit) error {
	nMetrics := len(s.owner.metrics)
	fitter := e.fitterFor(s.Dim(), nMetrics)
	defer e.fitters.Put(fitter)

	dim, width := s.Dim(), s.owner.width
	vals := s.vals
	total := s.n
	// feed folds observations [from, to) of the snapshot into the
	// fitter, walking the flat array with a running offset. Observation
	// order never affects the Gram sums, so growing the window at its old
	// end needs no special handling.
	feed := func(from, to int) error {
		for at := from * width; at < to*width; at += width {
			if err := fitter.AddObservation(vals[at:at+dim], vals[at+dim:at+width]); err != nil {
				return err
			}
		}
		return nil
	}

	m := minM
	if err := feed(total-m, total); err != nil {
		return err
	}
	rounds := 0
	for {
		if err := fitter.Solve(regression.FitOptions{}); err != nil {
			return fmt.Errorf("core: window %d: %w", m, err)
		}
		rounds++
		fit.refits += nMetrics
		allGood := true
		for n := 0; n < nMetrics; n++ {
			if fitter.R2(n) < e.cfg.RequiredR2 {
				allGood = false
				break
			}
		}
		if allGood {
			fit.converged = true
			break
		}
		if m >= mmax {
			break
		}
		newM := e.grow(m, mmax)
		if err := feed(total-newM, total-m); err != nil {
			return err
		}
		m = newM
	}

	// Materialize owned models from the final window, into fit: the
	// search allocates nothing, however far the window grew.
	fit.setModels(fitter, nMetrics, s.Dim()+1)
	fit.windowSize = m
	e.incrementalSteps.Add(uint64(fitter.N()))
	e.refitsAvoided.Add(uint64((rounds - 1) * nMetrics))
	return nil
}
