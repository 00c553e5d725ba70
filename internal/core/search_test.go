package core

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/regression"
	"repro/internal/stats"
)

// The legacy per-window batch loop (searchWindowReference, below) is
// the reference implementation of Algorithm 1: it fits every metric
// from scratch at every growth step, exactly what the incremental
// shared-Gram search replaced. These tests hold the two
// equivalent — same chosen window, same convergence, same coefficients
// and R² within 1e-9, same ridge-fallback behavior — across randomized
// histories, which is what lets the hot path be fast without being a
// second source of truth.

// searchWindowReference is Algorithm 1 as written: one batch MLR fit
// per metric per window size, over the m most recent observations.
func searchWindowReference(e *Estimator, s *Snapshot, minM, mmax int) (*windowFit, error) {
	nMetrics := len(s.owner.metrics)
	fit := &windowFit{
		models: make([]*regression.Model, nMetrics),
		r2s:    make([]float64, nMetrics),
	}
	for i := range fit.r2s {
		fit.r2s[i] = -1 // "R²n ← ∅" (Algorithm 1 line 3): no model yet
	}

	m := minM
	for {
		window := s.obs[s.Len()-m:]
		allGood := true
		for n := 0; n < nMetrics; n++ {
			samples := make([]regression.Sample, len(window))
			for i, o := range window {
				samples[i] = regression.Sample{X: o.X, C: o.Costs[n]}
			}
			model, err := regression.Fit(samples, regression.FitOptions{})
			if err != nil {
				return nil, fmt.Errorf("core: metric %q window %d: %w", s.metricName(n), m, err)
			}
			fit.refits++
			fit.models[n] = model
			fit.r2s[n] = model.R2
			if model.R2 < e.cfg.RequiredR2 {
				allGood = false
			}
		}
		if allGood {
			fit.converged = true
			break
		}
		if m >= mmax {
			break
		}
		m = e.grow(m, mmax)
	}
	fit.windowSize = m
	return fit, nil
}

func close9(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// compareSearches runs both search implementations on the snapshot and
// reports any divergence.
func compareSearches(t *testing.T, e *Estimator, s *Snapshot) {
	t.Helper()
	minM := regression.MinObservations(s.Dim())
	if s.Len() < minM {
		t.Fatalf("history too short: %d < %d", s.Len(), minM)
	}
	mmax := e.cfg.MMax
	if mmax == 0 || mmax > s.Len() {
		mmax = s.Len()
	}
	if mmax < minM {
		mmax = minM
	}
	inc, incErr := e.searchWindowIncremental(s, minM, mmax)
	ref, refErr := searchWindowReference(e, s, minM, mmax)
	if (incErr == nil) != (refErr == nil) {
		t.Fatalf("search disagreement: incremental %v, reference %v", incErr, refErr)
	}
	if incErr != nil {
		return
	}
	if inc.windowSize != ref.windowSize || inc.converged != ref.converged || inc.refits != ref.refits {
		t.Fatalf("search shape diverged: incremental {m=%d conv=%v refits=%d} reference {m=%d conv=%v refits=%d}",
			inc.windowSize, inc.converged, inc.refits, ref.windowSize, ref.converged, ref.refits)
	}
	for n := range ref.models {
		if !close9(inc.r2s[n], ref.r2s[n]) {
			t.Fatalf("metric %d R²: %v (incremental) vs %v (reference)", n, inc.r2s[n], ref.r2s[n])
		}
		im, rm := inc.models[n], ref.models[n]
		if im.Ridge != rm.Ridge {
			t.Fatalf("metric %d ridge: %v (incremental) vs %v (reference)", n, im.Ridge, rm.Ridge)
		}
		if len(im.Beta) != len(rm.Beta) {
			t.Fatalf("metric %d: beta length %d vs %d", n, len(im.Beta), len(rm.Beta))
		}
		for j := range rm.Beta {
			if !close9(im.Beta[j], rm.Beta[j]) {
				t.Fatalf("metric %d β[%d]: %v (incremental) vs %v (reference)", n, j, im.Beta[j], rm.Beta[j])
			}
		}
		if !close9(im.SSE, rm.SSE) || !close9(im.SST, rm.SST) {
			t.Fatalf("metric %d SSE/SST: %v/%v vs %v/%v", n, im.SSE, im.SST, rm.SSE, rm.SST)
		}
	}
}

// TestPropertyIncrementalSearchMatchesReference randomizes history
// length, noise, metric count, MMax and the growth policy.
func TestPropertyIncrementalSearchMatchesReference(t *testing.T) {
	rng := stats.NewRNG(77)
	f := func(nRaw, mmaxRaw, noiseRaw, kRaw uint8, doubling bool) bool {
		k := int(kRaw%3) + 1
		metrics := make([]string, k)
		for i := range metrics {
			metrics[i] = fmt.Sprintf("m%d", i)
		}
		h, err := NewHistory(2, metrics...)
		if err != nil {
			return false
		}
		n := regression.MinObservations(2) + int(nRaw%60)
		noise := float64(noiseRaw%12) / 2
		for i := 0; i < n; i++ {
			x1, x2 := rng.Uniform(0, 10), rng.Uniform(0, 10)
			costs := make([]float64, k)
			for m := range costs {
				costs[m] = float64(m+1)*(1+2*x1+3*x2) + rng.Normal(0, noise)
			}
			if err := h.Append(Observation{X: []float64{x1, x2}, Costs: costs}); err != nil {
				return false
			}
		}
		growth := GrowByOne
		if doubling {
			growth = Doubling
		}
		e, err := NewEstimator(Config{
			RequiredR2: 0.9,
			MMax:       int(mmaxRaw % 50),
			Growth:     growth,
			CacheSize:  -1,
		})
		if err != nil {
			return false
		}
		compareSearches(t, e, h.Snapshot())
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestIncrementalSearchSingularWindows forces the ridge fallback: the
// newest observations are all identical, so every window up to the
// first distinct observation has a rank-1 Gram.
func TestIncrementalSearchSingularWindows(t *testing.T) {
	h := mustHistory(t, 2, "time", "money")
	rng := stats.NewRNG(5)
	for i := 0; i < 20; i++ {
		x1, x2 := rng.Uniform(0, 10), rng.Uniform(0, 10)
		if err := h.Append(Observation{X: []float64{x1, x2}, Costs: []float64{1 + x1 + x2, x1}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ { // a constant tail longer than the minimal window
		if err := h.Append(Observation{X: []float64{4, 4}, Costs: []float64{9, 4}}); err != nil {
			t.Fatal(err)
		}
	}
	e := mustEstimator(t, Config{RequiredR2: 0.95, CacheSize: -1})
	compareSearches(t, e, h.Snapshot())

	// The estimate path must survive the degenerate windows end to end.
	est, err := e.EstimateCostValue(h, []float64{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Metrics) != 2 {
		t.Fatalf("metrics = %d", len(est.Metrics))
	}
}

// TestIncrementalSearchStats pins the new observability counters: a
// grown search reports its rank-1 steps and the batch refits the
// legacy loop would have re-run.
func TestIncrementalSearchStats(t *testing.T) {
	h := mustHistory(t, 2, "time", "money")
	rng := stats.NewRNG(2)
	if err := fillLinear(h, rng, 60, 6); err != nil { // noisy: the window must grow
		t.Fatal(err)
	}
	e := mustEstimator(t, Config{RequiredR2: 0.97, MMax: 30, CacheSize: -1})
	est, err := e.EstimateCostValue(h, []float64{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.IncrementalSteps != uint64(est.WindowSize) {
		t.Errorf("IncrementalSteps = %d, want the final window size %d", st.IncrementalSteps, est.WindowSize)
	}
	rounds := est.Refits / 2 // 2 metrics per round
	if want := uint64((rounds - 1) * 2); st.RefitsAvoided != want {
		t.Errorf("RefitsAvoided = %d, want %d ((rounds-1)·K)", st.RefitsAvoided, want)
	}
	if est.WindowSize <= regression.MinObservations(2) {
		t.Fatalf("window did not grow (m=%d); the counters were not exercised", est.WindowSize)
	}
}

// TestIncrementalSearchDeterministicUnderConcurrency is the
// request-concurrency contract at the core layer: any number of
// goroutines hammering the same snapshot through pooled fitters must
// produce byte-identical estimates to a sequential run.
func TestIncrementalSearchDeterministicUnderConcurrency(t *testing.T) {
	h := seedHistory(t, 60)
	e := mustEstimator(t, Config{RequiredR2: 0.95, MMax: 25, CacheSize: -1})
	s := h.Snapshot()

	render := func(est *Estimate) string {
		return fmt.Sprintf("%d|%v|%d|%+v", est.WindowSize, est.Converged, est.Refits, est.Values())
	}
	want := make([]string, 32)
	for i := range want {
		est, err := e.EstimateSnapshot(s, []float64{float64(i % 9)})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = render(est)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for i := range want {
					est, err := e.EstimateSnapshot(s, []float64{float64(i % 9)})
					if err != nil {
						errs <- err
						return
					}
					if got := render(est); got != want[i] {
						errs <- fmt.Errorf("plan %d diverged under concurrency:\n got %s\nwant %s", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
