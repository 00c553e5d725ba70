package core

import (
	"fmt"

	"repro/internal/regression"
)

// The incremental window search.
//
// The legacy Algorithm 1 loop paid O(M²·L²·K) per search: every growth
// step re-ran a batch fit for every metric, rebuilding the m×(L+1)
// design matrix and recomputing AᵀA from scratch — even though the
// design matrix is identical across all K metrics of a window, and a
// most-recent window of size m+1 is the size-m window plus exactly one
// older observation. Both redundancies fall to the shared-Gram
// incremental fitter:
//
//   - one fitter carries AᵀA and all K right-hand sides, so a growth
//     step is a single rank-1 update (order-independent Gram sums make
//     "the window grew at its old end" a plain AddObservation);
//   - each window size factors the Gram once (Cholesky) and
//     back-substitutes K times, with SSE derived from βᵀ(Aᵀc) so R²
//     needs no second pass over the window.
//
// Total: O(M·L² + M·(L³ + K·L²)) per search — linear in the window
// instead of quadratic, and O(1) steady-state allocations thanks to the
// estimator's fitter pool.

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
// feeding observations into one shared-Gram fitter as the window grows.
func (e *Estimator) searchWindowIncremental(s *Snapshot, minM, mmax int) (*windowFit, error) {
	nMetrics := len(s.owner.metrics)
	fitter := e.fitterFor(s.Dim(), nMetrics)
	defer e.fitters.Put(fitter)

	obs := s.obs
	total := len(obs)
	// feed folds obs[from:to) into the fitter. Observation order never
	// affects the Gram sums, so growing the window at its old end needs
	// no special handling.
	feed := func(from, to int) error {
		for i := from; i < to; i++ {
			if err := fitter.AddObservation(obs[i].X, obs[i].Costs); err != nil {
				return err
			}
		}
		return nil
	}

	fit := &windowFit{models: make([]*regression.Model, nMetrics)}
	m := minM
	if err := feed(total-m, total); err != nil {
		return nil, err
	}
	rounds := 0
	for {
		if err := fitter.Solve(regression.FitOptions{}); err != nil {
			return nil, fmt.Errorf("core: window %d: %w", m, err)
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
			return nil, err
		}
		m = newM
	}

	// Materialize owned models from the final window: the only
	// allocations of the whole search, and independent of how far the
	// window grew.
	for n := 0; n < nMetrics; n++ {
		fit.models[n] = fitter.Model(n)
	}
	fit.windowSize = m
	e.incrementalSteps.Add(uint64(fitter.N()))
	e.refitsAvoided.Add(uint64((rounds - 1) * nMetrics))
	return fit, nil
}
