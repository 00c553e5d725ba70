package regression

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/stats"
)

// IncrementalFitter maintains the normal-equation state of Algorithm
// 1's window — the Gram matrix AᵀA, one right-hand side Aᵀc_k per cost
// metric, and running mean/SST accumulators (Welford) — so that growing
// the window by one observation is a rank-1 update instead of a
// from-scratch refit:
//
//   - AddObservation folds one execution into every metric at once:
//     O(L² + K·L).
//   - Solve factors the shared Gram exactly once per window size
//     (Cholesky, O(L³)); a metric's back-substitution (O(L²)) runs the
//     first time R2, Beta or ModelInto asks for that metric after the
//     Solve, deriving its SSE algebraically from the
//     incrementally-maintained centered co-moments so R² needs no
//     second pass over the window. A window search that stops at the
//     first metric below its R² bar never solves the others.
//
// The design matrix never materializes and no per-window state is
// rebuilt, which turns the window search's total cost from
// O(M²·L²·K) into O(M·L²  +  M·(L³ + K·L²)) — linear in the window.
// Gram sums are order-independent, so a window that grows at its *old*
// end (DREAM's most-recent-suffix windows) feeds observations in any
// convenient order.
//
// The batch Fit remains the reference implementation; the two are held
// equivalent (coefficients, R², ridge-fallback behavior) by property
// tests. An IncrementalFitter is not safe for concurrent use; the
// estimator pools one per in-flight search.
type IncrementalFitter struct {
	l, k int // feature dimension, metric count
	n    int // observations folded in

	gram *linalg.Matrix // (L+1)×(L+1) running AᵀA
	rhs  []float64      // K stacked right-hand sides Aᵀc_k, each L+1 long
	// comoment holds K stacked centered right-hand sides Aᵀd_k where
	// d_k = c_k − mean(c_k), maintained incrementally Welford-style.
	// The error decomposition is computed from these centered
	// quantities: the naive cᵀc − βᵀ(Aᵀc) form is a difference of two
	// numbers of magnitude ‖c‖², which cancels catastrophically for
	// metrics whose mean dwarfs their spread, while every centered term
	// is O(‖d‖²).
	comoment []float64
	acc      []stats.Online // per metric: running mean / Σ(c−mean)²
	row      []float64      // scratch design row [1, x…]
	colSums  []float64      // scratch: Gram row 0 (column sums of A) before the update

	// Solve outputs, overwritten by the next Solve or AddObservation.
	// Metric m's beta and r2 are valid once done[m] is set: Solve clears
	// every flag, metric sets one.
	chol   linalg.Cholesky
	beta   []float64 // K stacked coefficient vectors
	betac  []float64 // scratch: mean-shifted coefficients for the SSE form
	r2     []float64
	done   []bool
	ridge  float64 // regularizer of the last Solve: 0 or the fallback's
	solved bool
}

// NewIncrementalFitter returns an empty fitter for l features and k
// metrics.
func NewIncrementalFitter(l, k int) *IncrementalFitter {
	f := &IncrementalFitter{}
	f.Reset(l, k)
	return f
}

// Reset empties the fitter and reshapes it for l features and k
// metrics, reusing the existing storage whenever it is large enough —
// the estimator's scratch pool calls this once per window search, so
// steady-state searches allocate nothing here.
func (f *IncrementalFitter) Reset(l, k int) {
	if l <= 0 || k <= 0 {
		panic(fmt.Sprintf("regression: invalid fitter shape l=%d k=%d", l, k))
	}
	p := l + 1
	if f.gram == nil || f.gram.Rows() != p {
		f.gram = linalg.New(p, p)
	} else {
		f.gram.Zero()
	}
	f.rhs = resizeZero(f.rhs, k*p)
	f.comoment = resizeZero(f.comoment, k*p)
	f.beta = resizeZero(f.beta, k*p)
	f.betac = resizeZero(f.betac, p)
	f.row = resizeZero(f.row, p)
	f.colSums = resizeZero(f.colSums, p)
	f.r2 = resizeZero(f.r2, k)
	if cap(f.done) < k {
		f.done = make([]bool, k)
	}
	f.done = f.done[:k]
	if cap(f.acc) < k {
		f.acc = make([]stats.Online, k)
	}
	f.acc = f.acc[:k]
	for i := range f.acc {
		f.acc[i].Reset()
	}
	f.l, f.k, f.n = l, k, 0
	f.ridge, f.solved = 0, false
}

func resizeZero(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// N returns the number of observations folded in.
func (f *IncrementalFitter) N() int { return f.n }

// AddObservation folds one execution — feature vector x, one observed
// cost per metric — into the shared state: a rank-1 Gram update plus K
// right-hand-side and moment updates, O(L² + K·L) total.
func (f *IncrementalFitter) AddObservation(x []float64, costs []float64) error {
	if len(x) != f.l {
		return fmt.Errorf("%w: observation has %d features, fitter wants %d", ErrDimension, len(x), f.l)
	}
	if len(costs) != f.k {
		return fmt.Errorf("%w: observation has %d costs, fitter wants %d metrics", ErrDimension, len(costs), f.k)
	}
	p := f.l + 1
	f.row[0] = 1
	copy(f.row[1:], x)
	// Column sums of A over the *previous* observations = Gram row 0
	// (the design matrix's leading ones column); the centered co-moment
	// update needs them before the rank-1 Gram update lands.
	for j := 0; j < p; j++ {
		f.colSums[j] = f.gram.At(0, j)
	}
	if err := f.gram.AddOuter(f.row); err != nil {
		return err
	}
	for m, c := range costs {
		b := f.rhs[m*p : (m+1)*p]
		q := f.comoment[m*p : (m+1)*p]
		meanOld := f.acc[m].Mean()
		f.acc[m].Add(c)
		meanNew := f.acc[m].Mean()
		// q = Σᵢ (cᵢ − c̄)aᵢ, exactly updated for the shifted mean:
		// every previous term moves by (c̄old − c̄new)·Σaᵢ.
		for j, a := range f.row {
			b[j] += c * a
			q[j] += (meanOld-meanNew)*f.colSums[j] + (c-meanNew)*a
		}
	}
	f.n++
	f.solved = false
	return nil
}

// Solve fits the current window: one Cholesky factorization of the
// shared Gram. Each metric's back-substitution and closed-form error
// decomposition wait until R2, Beta or ModelInto first asks for it, so the
// results are the same whichever metrics are read, in whatever order.
// Like Fit, a singular window retries once with RidgeFallback. Solve
// allocates nothing, so it can run once per growth step of a window
// search. The empty FitOptions is there only because the frozen bench/
// passes one; ROADMAP 1(a) drops it with the next benchmark PR.
func (f *IncrementalFitter) Solve(FitOptions) error {
	if f.n < MinObservations(f.l) {
		return fmt.Errorf("%w: have %d, need at least %d for %d variables",
			ErrTooFewObservations, f.n, MinObservations(f.l), f.l)
	}
	f.solved = false
	ridge, err := factorize(&f.chol, f.gram)
	if err != nil {
		return err
	}
	clear(f.done)
	f.ridge, f.solved = ridge, true
	return nil
}

// metric back-substitutes metric m against the last Solve's factor and
// derives its R², once per Solve.
func (f *IncrementalFitter) metric(m int) {
	if f.done[m] {
		return
	}
	p := f.l + 1
	b := f.rhs[m*p : (m+1)*p]
	beta := f.beta[m*p : (m+1)*p]
	if err := f.chol.SolveVecInto(beta, b); err != nil {
		// The factor is (L+1)×(L+1) after a successful Solve, as are b and beta.
		panic("regression: " + err.Error())
	}
	// SSE = ‖c − Aβ‖² in centered form. Shifting the intercept by the
	// response mean (β̃ = β with β̃₀ −= c̄) turns the fitted values into
	// deviations, so with d = c − c̄ and q = Aᵀd:
	//
	//   SSE = ‖d − Aβ̃‖² = Σd² − 2·β̃ᵀq + β̃ᵀ(AᵀA)β̃
	//
	// an identity for *any* β̃ (no normal-equation or ridge assumption),
	// whose every term is O(‖d‖²) — immune to the catastrophic
	// cancellation the naive cᵀc − βᵀ(Aᵀc) form suffers when a metric's
	// mean dwarfs its spread. Σd² and q are maintained incrementally, so
	// no pass over the window is needed. Clamp at 0: the combination can
	// go epsilon-negative on near-perfect fits.
	mean := f.acc[m].Mean()
	copy(f.betac, beta)
	f.betac[0] -= mean
	q := f.comoment[m*p : (m+1)*p]
	var bq, bgb float64
	for j, bj := range f.betac {
		bq += bj * q[j]
		g := f.gram.RowView(j)
		var s float64
		for i, bi := range f.betac {
			s += g[i] * bi
		}
		bgb += bj * s
	}
	sse := f.acc[m].SumSquaredDeviations() - 2*bq + bgb
	if sse < 0 {
		sse = 0
	}
	sst := f.acc[m].SumSquaredDeviations()
	// Same convention as stats.RSquared: a constant response carries no
	// variance to explain.
	switch {
	case sst != 0:
		f.r2[m] = 1 - sse/sst
	case sse == 0:
		f.r2[m] = 1
	default:
		f.r2[m] = 0
	}
	f.done[m] = true
}

func (f *IncrementalFitter) mustSolved(what string) {
	if !f.solved {
		panic("regression: " + what + " before a successful Solve")
	}
}

// R2 returns metric m's coefficient of determination from the last
// Solve.
func (f *IncrementalFitter) R2(m int) float64 {
	f.mustSolved("R2")
	f.metric(m)
	return f.r2[m]
}

// Beta returns metric m's coefficient vector from the last Solve as a
// view into scratch storage: valid until the next AddObservation,
// Solve, or Reset.
func (f *IncrementalFitter) Beta(m int) []float64 {
	f.mustSolved("Beta")
	f.metric(m)
	p := f.l + 1
	return f.beta[m*p : (m+1)*p]
}

// Ridge reports the regularizer of the last Solve: 0 for a plain fit,
// positive when the window was singular and took the RidgeFallback.
func (f *IncrementalFitter) Ridge() float64 {
	f.mustSolved("Ridge")
	return f.ridge
}

// ModelInto materializes metric m's model from the last Solve —
// identical in shape and semantics to what the batch Fit returns and
// independent of the fitter's scratch: its coefficients are copied into
// beta, which must hold L+1 values, storage the caller owns.
func (f *IncrementalFitter) ModelInto(m int, beta []float64) Model {
	f.mustSolved("Model")
	f.metric(m)
	p := f.l + 1
	beta = beta[:p:p]
	copy(beta, f.beta[m*p:(m+1)*p])
	return Model{Beta: beta, R2: f.r2[m], N: f.n, L: f.l, Ridge: f.ridge}
}
