package regression

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
	"repro/internal/stats"
)

// multiSample is the incremental fitter's natural input: one feature
// vector, K observed costs.
type multiSample struct {
	x     []float64
	costs []float64
}

// metricView projects metric m of a multi-metric window into batch
// samples.
func metricView(obs []multiSample, m int) []Sample {
	out := make([]Sample, len(obs))
	for i, o := range obs {
		out[i] = Sample{X: o.x, C: o.costs[m]}
	}
	return out
}

// close9 is the PR's equivalence contract: agreement within 1e-9,
// scaled by magnitude.
func close9(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// compareToBatch fits every metric of the window both ways and fails on
// any divergence in coefficients, R², or ridge behavior.
func compareToBatch(t *testing.T, obs []multiSample) {
	t.Helper()
	l, k := len(obs[0].x), len(obs[0].costs)
	f := NewIncrementalFitter(l, k)
	for _, o := range obs {
		if err := f.AddObservation(o.x, o.costs); err != nil {
			t.Fatal(err)
		}
	}
	incErr := f.Solve(FitOptions{})
	for m := 0; m < k; m++ {
		batch, batchErr := Fit(metricView(obs, m))
		if (incErr == nil) != (batchErr == nil) {
			t.Fatalf("metric %d: solve disagreement: incremental %v, batch %v", m, incErr, batchErr)
		}
		if incErr != nil {
			continue
		}
		if ridge := f.Ridge(); ridge != batch.Ridge {
			t.Fatalf("metric %d: ridge %v (incremental) vs %v (batch)", m, ridge, batch.Ridge)
		}
		for j, want := range batch.Beta {
			if got := f.Beta(m)[j]; !close9(got, want) {
				t.Fatalf("metric %d β[%d]: %v (incremental) vs %v (batch)", m, j, got, want)
			}
		}
		if !close9(f.R2(m), batch.R2) {
			t.Fatalf("metric %d R²: %v (incremental) vs %v (batch)", m, f.R2(m), batch.R2)
		}
	}
}

// linearWindow draws n observations from a random K-metric linear model
// with the given noise; collinear duplicates feature 0 into the last
// feature, making the plain normal matrix exactly singular.
func linearWindow(rng *stats.RNG, n, l, k int, noise float64, collinear bool) []multiSample {
	b0 := make([]float64, k)
	b := make([][]float64, k)
	for m := 0; m < k; m++ {
		b0[m] = rng.Uniform(-5, 5)
		b[m] = make([]float64, l)
		for j := range b[m] {
			b[m][j] = rng.Uniform(-3, 3)
		}
	}
	out := make([]multiSample, n)
	for i := range out {
		x := make([]float64, l)
		for j := range x {
			x[j] = rng.Uniform(0, 10)
		}
		if collinear && l >= 2 {
			x[l-1] = 2 * x[0]
		}
		costs := make([]float64, k)
		for m := 0; m < k; m++ {
			c := b0[m]
			for j, xj := range x {
				c += b[m][j] * xj
			}
			costs[m] = c + rng.Normal(0, noise)
		}
		out[i] = multiSample{x: x, costs: costs}
	}
	return out
}

func TestIncrementalMatchesBatchOnPaperData(t *testing.T) {
	// The paper's Table 2 windows, solved incrementally, must reproduce
	// the batch fit (and therefore the published R² column).
	for m := 4; m <= 10; m++ {
		obs := make([]multiSample, m)
		for i, s := range paperTable2[:m] {
			obs[i] = multiSample{x: s.X, costs: []float64{s.C}}
		}
		compareToBatch(t, obs)
	}
}

// TestPropertyIncrementalMatchesBatch is the tentpole equivalence
// contract: across randomized window shapes, noise levels, and the
// exactly-singular collinear case (ridge fallback), the incremental
// solve agrees with the batch reference within 1e-9.
func TestPropertyIncrementalMatchesBatch(t *testing.T) {
	rng := stats.NewRNG(101)
	f := func(nRaw, lRaw, kRaw, noiseRaw uint8, collinear bool) bool {
		l := int(lRaw%3) + 1
		k := int(kRaw%3) + 1
		n := MinObservations(l) + int(nRaw%30)
		noise := float64(noiseRaw%10) / 2
		obs := linearWindow(rng, n, l, k, noise, collinear)
		compareToBatch(t, obs)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestIncrementalMatchesBatchAsWindowGrows replays the exact access
// pattern of Algorithm 1's search: a suffix window growing one
// observation at a time at its old end, solved after every step.
func TestIncrementalMatchesBatchAsWindowGrows(t *testing.T) {
	rng := stats.NewRNG(7)
	const total = 24
	obs := linearWindow(rng, total, 2, 2, 2.5, false)
	minM := MinObservations(2)

	f := NewIncrementalFitter(2, 2)
	// Seed with the newest minM observations, then grow backwards.
	for _, o := range obs[total-minM:] {
		if err := f.AddObservation(o.x, o.costs); err != nil {
			t.Fatal(err)
		}
	}
	for m := minM; m <= total; m++ {
		window := obs[total-m:]
		if err := f.Solve(FitOptions{}); err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		for metric := 0; metric < 2; metric++ {
			batch, err := Fit(metricView(window, metric))
			if err != nil {
				t.Fatalf("m=%d: %v", m, err)
			}
			if !close9(f.R2(metric), batch.R2) {
				t.Fatalf("m=%d metric %d: R² %v vs %v", m, metric, f.R2(metric), batch.R2)
			}
			for j := range batch.Beta {
				if !close9(f.Beta(metric)[j], batch.Beta[j]) {
					t.Fatalf("m=%d metric %d β[%d]: %v vs %v", m, metric, j, f.Beta(metric)[j], batch.Beta[j])
				}
			}
		}
		if m < total {
			o := obs[total-m-1] // grow at the old end
			if err := f.AddObservation(o.x, o.costs); err != nil {
				t.Fatal(err)
			}
		}
	}
	if f.N() != total {
		t.Fatalf("N = %d, want %d", f.N(), total)
	}
}

// TestIncrementalLargeMeanSmallSpread is the catastrophic-cancellation
// regression test: a metric whose mean (1e8) dwarfs its spread (~1)
// must not collapse SSE to 0 (and R² to a spurious 1) in the
// incremental path. The naive cᵀc − βᵀ(Aᵀc) decomposition loses the
// entire signal to rounding here; the centered co-moment form keeps
// every term at the spread's scale.
func TestIncrementalLargeMeanSmallSpread(t *testing.T) {
	rng := stats.NewRNG(41)
	const mean, n = 1e8, 21
	obs := make([]multiSample, n)
	for i := range obs {
		x := []float64{rng.Uniform(0, 10), rng.Uniform(0, 10)}
		// Pure noise around the huge mean: no feature explains it, so
		// the true R² is near 0 — the worst place for a spurious 1.
		obs[i] = multiSample{x: x, costs: []float64{mean + rng.Normal(0, 1)}}
	}
	f := NewIncrementalFitter(2, 1)
	for _, o := range obs {
		if err := f.AddObservation(o.x, o.costs); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Solve(FitOptions{}); err != nil {
		t.Fatal(err)
	}
	batch, err := Fit(metricView(obs, 0))
	if err != nil {
		t.Fatal(err)
	}
	if f.R2(0) > 0.9 {
		t.Fatalf("R² = %v on pure noise: SSE cancelled to ~0", f.R2(0))
	}
	// At this magnitude ratio even the residual-based batch SSE carries
	// ~1e-8 relative rounding, so the cross-check tolerance is looser
	// than the 1e-9 used on moderate data.
	if math.Abs(f.R2(0)-batch.R2) > 1e-6 {
		t.Fatalf("R² %v (incremental) vs %v (batch)", f.R2(0), batch.R2)
	}
}

// TestIncrementalSingularFallsBackToRidge: an exactly collinear window
// solves with the same positive fallback ridge the batch Fit takes.
func TestIncrementalSingularFallsBackToRidge(t *testing.T) {
	rng := stats.NewRNG(10)
	obs := linearWindow(rng, 12, 2, 1, 0, true)
	f := NewIncrementalFitter(2, 1)
	for _, o := range obs {
		if err := f.AddObservation(o.x, o.costs); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Solve(FitOptions{}); err != nil {
		t.Fatal(err)
	}
	batch, err := Fit(metricView(obs, 0))
	if err != nil {
		t.Fatal(err)
	}
	if ridge := f.Ridge(); ridge <= 0 || ridge != batch.Ridge {
		t.Fatalf("Ridge() = %v, batch %v; want the same positive fallback ridge", ridge, batch.Ridge)
	}
}

// ownedModel is metric m's model in coefficient storage of its own.
func ownedModel(f *IncrementalFitter, m int) *Model {
	mdl := f.ModelInto(m, make([]float64, f.l+1))
	return &mdl
}

func TestIncrementalModelPredictsLikeBatch(t *testing.T) {
	rng := stats.NewRNG(11)
	obs := linearWindow(rng, 30, 2, 2, 1.5, false)
	f := NewIncrementalFitter(2, 2)
	for _, o := range obs {
		if err := f.AddObservation(o.x, o.costs); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Solve(FitOptions{}); err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 2; m++ {
		batch, err := Fit(metricView(obs, m))
		if err != nil {
			t.Fatal(err)
		}
		model := ownedModel(f, m)
		for trial := 0; trial < 10; trial++ {
			x := []float64{rng.Uniform(0, 10), rng.Uniform(0, 10)}
			want, err := batch.Predict(x)
			if err != nil {
				t.Fatal(err)
			}
			got, err := model.Predict(x)
			if err != nil {
				t.Fatal(err)
			}
			if !close9(got, want) {
				t.Fatalf("metric %d at %v: pred %v vs batch %v", m, x, got, want)
			}
		}
	}
}

func TestIncrementalValidation(t *testing.T) {
	f := NewIncrementalFitter(2, 1)
	if err := f.AddObservation([]float64{1}, []float64{1}); !errors.Is(err, ErrDimension) {
		t.Fatalf("short features: got %v, want ErrDimension", err)
	}
	if err := f.AddObservation([]float64{1, 2}, []float64{1, 2}); !errors.Is(err, ErrDimension) {
		t.Fatalf("extra costs: got %v, want ErrDimension", err)
	}
	if err := f.Solve(FitOptions{}); !errors.Is(err, ErrTooFewObservations) {
		t.Fatalf("empty solve: got %v, want ErrTooFewObservations", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("R2 before Solve did not panic")
		}
	}()
	f.R2(0)
}

func TestIncrementalResetReuses(t *testing.T) {
	rng := stats.NewRNG(13)
	f := NewIncrementalFitter(3, 2)
	for _, o := range linearWindow(rng, 12, 3, 2, 1, false) {
		if err := f.AddObservation(o.x, o.costs); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Solve(FitOptions{}); err != nil {
		t.Fatal(err)
	}
	// Shrinking reshape, then verify the recycled fitter still matches
	// the batch reference — stale state would poison the Gram.
	f.Reset(1, 1)
	if f.N() != 0 {
		t.Fatalf("N after Reset = %d", f.N())
	}
	obs := linearWindow(rng, 10, 1, 1, 0.5, false)
	for _, o := range obs {
		if err := f.AddObservation(o.x, o.costs); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Solve(FitOptions{}); err != nil {
		t.Fatal(err)
	}
	batch, err := Fit(metricView(obs, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !close9(f.R2(0), batch.R2) {
		t.Fatalf("recycled fitter R² %v vs batch %v", f.R2(0), batch.R2)
	}
}

// eagerFit is one Solve's results for every metric, as eagerSolve
// computes them.
type eagerFit struct {
	beta  [][]float64
	r2    []float64
	ridge float64
}

// eagerSolve is a copy of the fitter's Solve from before metrics were
// solved lazily: the shared Gram factored with the Cholesky loops
// indexed as i*n+k, then every metric back-substituted and scored at
// once. TestIncrementalSolveLazyMatchesEager holds the lazy fitter to
// its bits. It reads f's state and changes none of it.
func eagerSolve(f *IncrementalFitter) (*eagerFit, error) {
	if f.n < MinObservations(f.l) {
		return nil, ErrTooFewObservations
	}
	var ridge float64
	l, err := eagerFactor(f.gram, 0)
	if errors.Is(err, linalg.ErrSingular) {
		ridge = fallbackRidge(f.gram)
		l, err = eagerFactor(f.gram, ridge)
	}
	if err != nil {
		return nil, err
	}
	p := f.l + 1
	out := &eagerFit{ridge: ridge, r2: make([]float64, f.k)}
	for m := 0; m < f.k; m++ {
		b := f.rhs[m*p : (m+1)*p]
		beta := make([]float64, p)
		for i := 0; i < p; i++ {
			s := b[i]
			for k := 0; k < i; k++ {
				s -= l[i*p+k] * beta[k]
			}
			beta[i] = s / l[i*p+i]
		}
		for i := p - 1; i >= 0; i-- {
			s := beta[i]
			for k := i + 1; k < p; k++ {
				s -= l[k*p+i] * beta[k]
			}
			beta[i] = s / l[i*p+i]
		}
		out.beta = append(out.beta, beta)
		mean := f.acc[m].Mean()
		betac := append([]float64(nil), beta...)
		betac[0] -= mean
		q := f.comoment[m*p : (m+1)*p]
		var bq, bgb float64
		for j, bj := range betac {
			bq += bj * q[j]
			var s float64
			for i, bi := range betac {
				s += f.gram.At(j, i) * bi
			}
			bgb += bj * s
		}
		sse := f.acc[m].SumSquaredDeviations() - 2*bq + bgb
		if sse < 0 {
			sse = 0
		}
		sst := f.acc[m].SumSquaredDeviations()
		switch {
		case sst != 0:
			out.r2[m] = 1 - sse/sst
		case sse == 0:
			out.r2[m] = 1
		default:
			out.r2[m] = 0
		}
	}
	return out, nil
}

// eagerFactor is linalg.Cholesky.Factorize as it was before it indexed
// row sub-slices: the factor of a + ridge·I, row-major.
func eagerFactor(a *linalg.Matrix, ridge float64) ([]float64, error) {
	n := a.Rows()
	l := make([]float64, n*n)
	var maxDiag float64
	for i := 0; i < n; i++ {
		if d := math.Abs(a.At(i, i) + ridge); d > maxDiag {
			maxDiag = d
		}
	}
	tol := 1e-12 * maxDiag
	if tol == 0 {
		tol = 1e-12
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			if i == j {
				s += ridge
			}
			for k := 0; k < j; k++ {
				s -= l[i*n+k] * l[j*n+k]
			}
			if i == j {
				if s <= tol {
					return nil, linalg.ErrSingular
				}
				l[i*n+i] = math.Sqrt(s)
			} else {
				l[i*n+j] = s / l[j*n+j]
			}
		}
	}
	return l, nil
}

// TestIncrementalSolveLazyMatchesEager: after every Solve, each metric's
// coefficients, R² and the ridge read back from the lazy fitter carry
// exactly eagerSolve's bits — whichever metrics are read, in whatever
// order, however many observations arrive between a partial read and
// the next Solve. Histories are random (any width, some collinear) and
// served-shape (the query's two table sizes constant, so every plain
// window is singular and takes the ridge fallback, as the window
// search's do).
func TestIncrementalSolveLazyMatchesEager(t *testing.T) {
	rng := stats.NewRNG(28)
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	fellBack := 0
	for trial := 0; trial < 300; trial++ {
		served := trial%2 == 1
		l, k := 1+int(rng.Uniform(0, 6)), 1+int(rng.Uniform(0, 4))
		var obs []multiSample
		if served {
			l, k = 5, 2
			obs = servedWindow(rng, 40, k)
		} else {
			obs = linearWindow(rng, 40, l, k, rng.Uniform(0, 5), trial%5 == 0)
		}
		f := NewIncrementalFitter(l, k)
		for i, o := range obs {
			if err := f.AddObservation(o.x, o.costs); err != nil {
				t.Fatal(err)
			}
			if i+1 < MinObservations(l) {
				continue
			}
			want, wantErr := eagerSolve(f)
			if err := f.Solve(FitOptions{}); (err == nil) != (wantErr == nil) {
				t.Fatalf("trial %d, n %d: Solve %v, eager %v", trial, i+1, err, wantErr)
			}
			if wantErr != nil {
				continue
			}
			ridge := f.Ridge()
			if !bits(ridge, want.ridge) {
				t.Fatalf("trial %d, n %d: ridge %v, eager %v", trial, i+1, ridge, want.ridge)
			}
			if ridge > 0 {
				fellBack++
			}
			// Read a random subset of the metrics in a random order —
			// sometimes none, so the next observation lands on a fitter
			// whose metrics were never solved.
			for _, m := range rng.Perm(k)[:int(rng.Uniform(0, float64(k)+1))] {
				var model *Model
				if rng.Uniform(0, 1) < 0.5 {
					model = ownedModel(f, m)
				}
				if !bits(f.R2(m), want.r2[m]) {
					t.Fatalf("trial %d, n %d, metric %d: R² %v, eager %v", trial, i+1, m, f.R2(m), want.r2[m])
				}
				for j, b := range f.Beta(m) {
					if !bits(b, want.beta[m][j]) {
						t.Fatalf("trial %d, n %d, metric %d: β[%d] %v, eager %v", trial, i+1, m, j, b, want.beta[m][j])
					}
				}
				if model == nil {
					model = ownedModel(f, m)
				}
				if !bits(model.R2, want.r2[m]) || !bits(model.Ridge, want.ridge) {
					t.Fatalf("trial %d, n %d, metric %d: model R²/ridge %v/%v, eager %v/%v", trial, i+1, m,
						model.R2, model.Ridge, want.r2[m], want.ridge)
				}
				for j, b := range model.Beta {
					if !bits(b, want.beta[m][j]) {
						t.Fatalf("trial %d, n %d, metric %d: model β[%d] %v, eager %v", trial, i+1, m, j, b, want.beta[m][j])
					}
				}
			}
		}
	}
	if fellBack == 0 {
		t.Error("no Solve took the ridge fallback")
	}
}

// servedWindow draws n observations of the serving shape: features
// [left MiB, right MiB, nodes left, nodes right, join at left] with the
// two table sizes fixed for the query, costs linear in the node counts
// plus noise.
func servedWindow(rng *stats.RNG, n, k int) []multiSample {
	leftMiB, rightMiB := rng.Uniform(10, 900), rng.Uniform(1, 90)
	out := make([]multiSample, n)
	for i := range out {
		nl, nr := float64(1+int(rng.Uniform(0, 32))), float64(1+int(rng.Uniform(0, 32)))
		join := float64(int(rng.Uniform(0, 2)))
		costs := make([]float64, k)
		for m := range costs {
			costs[m] = float64(m+1)*(40/nl+9/nr) + 3*join + rng.Normal(0, 0.5)
		}
		out[i] = multiSample{x: []float64{leftMiB, rightMiB, nl, nr, join}, costs: costs}
	}
	return out
}

// ---------------------------------------------------------------------------

// BenchmarkIncrementalVsBatchFit contrasts the two solvers on the exact
// workload of one Algorithm 1 window search: a 2-metric suffix window
// growing from L+2 to M, refit at every step.
func BenchmarkIncrementalVsBatchFit(b *testing.B) {
	const l, k, m = 5, 2, 64
	rng := stats.NewRNG(1)
	obs := linearWindow(rng, m, l, k, 3, false)
	minM := MinObservations(l)

	b.Run("Batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for w := minM; w <= m; w++ {
				window := obs[m-w:]
				for metric := 0; metric < k; metric++ {
					if _, err := Fit(metricView(window, metric)); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
	b.Run("Incremental", func(b *testing.B) {
		b.ReportAllocs()
		f := NewIncrementalFitter(l, k)
		for i := 0; i < b.N; i++ {
			f.Reset(l, k)
			for _, o := range obs[m-minM:] {
				if err := f.AddObservation(o.x, o.costs); err != nil {
					b.Fatal(err)
				}
			}
			for w := minM; ; w++ {
				if err := f.Solve(FitOptions{}); err != nil {
					b.Fatal(err)
				}
				for metric := 0; metric < k; metric++ {
					f.R2(metric) // the batch side scores every metric too
				}
				if w == m {
					break
				}
				o := obs[m-w-1]
				if err := f.AddObservation(o.x, o.costs); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
