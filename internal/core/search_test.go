package core

import (
	"cmp"
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
	fit := &windowFit{models: make([]*regression.Model, nMetrics)}

	m := minM
	for {
		window := s.obs[s.Len()-m:]
		allGood := true
		for n := 0; n < nMetrics; n++ {
			samples := make([]regression.Sample, len(window))
			for i, o := range window {
				samples[i] = regression.Sample{X: o.X, C: o.Costs[n]}
			}
			model, err := regression.Fit(samples)
			if err != nil {
				return nil, fmt.Errorf("core: metric %q window %d: %w", s.metricName(n), m, err)
			}
			fit.refits++
			fit.models[n] = model
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
		im, rm := inc.models[n], ref.models[n]
		if !close9(im.R2, rm.R2) {
			t.Fatalf("metric %d R²: %v (incremental) vs %v (reference)", n, im.R2, rm.R2)
		}
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

// TestWindowSearchInvariants holds Algorithm 1's chosen window to its
// definition on seeded snapshots: L 1–6 features, K 1–3 metrics, R² bars
// 0.5, 0.8, 0.99 and 1, MMax 0, L+2, 3(L+2) and past what is retained,
// both growth policies, with and without a retention bound, and the
// served shape, where the first two (table-size) columns are constant.
//
//   - L+2 ≤ m ≤ Len − Base: the window never reaches past RetainedBase;
//   - Converged exactly when every returned R² meets the bar;
//   - m = mmax when not converged;
//   - under GrowByOne, every smaller window fails the bar by batch
//     regression.Fit (windows within 1e-9 of the bar are skipped).
func TestWindowSearchInvariants(t *testing.T) {
	rng := stats.NewRNG(29)
	snapshots, grown, climbed := 0, 0, 0
	for l := 1; l <= 6; l++ {
		for k := 1; k <= 3; k++ {
			metrics := make([]string, k)
			for i := range metrics {
				metrics[i] = fmt.Sprintf("m%d", i)
			}
			for _, bar := range []float64{0.5, 0.8, 0.99, 1} {
				for trial := 0; trial < 8; trial++ {
					minM := regression.MinObservations(l)
					h := mustHistory(t, l, metrics...)
					retain := 0
					if rng.Intn(2) == 0 {
						retain = minM + rng.Intn(3*minM)
						h.SetRetain(retain)
					}
					served := l >= 2 && rng.Intn(2) == 0
					noise := []float64{0, 0.2, 1, 20}[rng.Intn(4)]
					// The newest tail observations sit in a tight cluster,
					// where noise swamps the signal, so the search has a
					// reason to grow into the older, spread-out ones.
					tail := rng.Intn(3 * minM)
					betas := make([][]float64, k)
					for n := range betas {
						betas[n] = make([]float64, l+1)
						for j := range betas[n] {
							betas[n][j] = rng.Uniform(-5, 5)
						}
					}
					total := minM + rng.Intn(6*minM) + 2*retain
					for i := 0; i < total; i++ {
						clustered := i >= total-tail
						x := make([]float64, l)
						for j := range x {
							switch {
							case served:
								x[j] = float64(1 + rng.Intn(8))
							case clustered:
								x[j] = 5 + rng.Uniform(-0.01, 0.01)
							default:
								x[j] = rng.Uniform(0, 10)
							}
						}
						if served {
							x[0], x[1] = 120, 12
						}
						sd := noise
						if clustered {
							sd = max(noise, 1)
						}
						costs := make([]float64, k)
						for n, b := range betas {
							costs[n] = b[0] + rng.Normal(0, sd)
							for j, xj := range x {
								costs[n] += b[j+1] * xj
							}
						}
						if err := h.Append(Observation{X: x, Costs: costs}); err != nil {
							t.Fatal(err)
						}
					}

					s := h.Snapshot()
					held := s.Len() - s.Base()
					mmax := []int{0, minM, 3 * minM, held + 5}[trial%4]
					growth := []GrowthPolicy{GrowByOne, Doubling}[trial/4]
					e := mustEstimator(t, Config{RequiredR2: bar, MMax: mmax, Growth: growth, CacheSize: -1})
					est, err := e.EstimateSnapshot(s, make([]float64, l))
					if err != nil {
						t.Fatal(err)
					}
					snapshots++
					m := est.WindowSize
					where := fmt.Sprintf("L %d, K %d, bar %v, MMax %d, growth %d, retain %d, served %v, %d appended, m %d",
						l, k, bar, mmax, growth, retain, served, total, m)
					if base := RetainedBase(uint64(s.Len()), uint64(retain)); uint64(s.Base()) != base {
						t.Fatalf("%s: base %d, RetainedBase %d", where, s.Base(), base)
					}
					if m < minM || m > held {
						t.Fatalf("%s: window outside [L+2, Len−Base] = [%d, %d]", where, minM, held)
					}
					meets := true
					for _, me := range est.Metrics {
						meets = meets && me.R2 >= bar
					}
					if est.Converged != meets {
						t.Fatalf("%s: converged %v, R² %v", where, est.Converged, est.Metrics)
					}
					if want := max(min(cmp.Or(mmax, held), held), minM); !est.Converged && m != want {
						t.Fatalf("%s: not converged below mmax %d", where, want)
					}
					if m > minM {
						grown++
					}
					if growth != GrowByOne {
						continue
					}
					if est.Converged && m > minM {
						climbed++
					}
					for w := minM; w < m; w++ {
						if !windowFailsBar(t, s, w, bar) {
							t.Fatalf("%s: the window of %d already meets the bar", where, w)
						}
					}
				}
			}
		}
	}
	t.Logf("%d snapshots, %d grown windows, %d converged past L+2 by GrowByOne", snapshots, grown, climbed)
	if snapshots < 500 || grown < snapshots/10 || climbed < 20 {
		t.Errorf("too few searches grew their window")
	}
}

// windowFailsBar reports whether some metric's batch fit over the w
// newest observations of s falls below bar — or any is within 1e-9 of
// it, too close to call against the incremental fit.
func windowFailsBar(t *testing.T, s *Snapshot, w int, bar float64) bool {
	t.Helper()
	window := s.obs[len(s.obs)-w:]
	fails := false
	for n := 0; n < s.NumMetrics(); n++ {
		samples := make([]regression.Sample, w)
		for i, o := range window {
			samples[i] = regression.Sample{X: o.X, C: o.Costs[n]}
		}
		model, err := regression.Fit(samples)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(model.R2-bar) <= 1e-9 {
			return true
		}
		fails = fails || model.R2 < bar
	}
	return fails
}
