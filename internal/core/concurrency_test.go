package core

import (
	"fmt"
	"sync"
	"testing"
)

// seedHistory builds a 1-feature history with n noisy-linear
// observations, enough for the default window search to work with.
func seedHistory(t testing.TB, n int) *History {
	t.Helper()
	h, err := NewHistory(1, "time_s", "money_usd")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		x := float64(i % 17)
		noise := float64(i%5) * 0.3
		if err := h.Append(Observation{
			X:     []float64{x},
			Costs: []float64{2*x + 1 + noise, 0.5*x + noise},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// TestConcurrentEstimateWhileAppending hammers one History from many
// estimator goroutines while a writer keeps appending — the shape of a
// live scheduler where executed plans stream observations in while a
// new round estimates thousands of QEPs. Run under -race this verifies
// the History/Estimator locking.
func TestConcurrentEstimateWhileAppending(t *testing.T) {
	h := seedHistory(t, 30)
	est, err := NewEstimator(Config{MMax: 12})
	if err != nil {
		t.Fatal(err)
	}

	const (
		readers    = 8
		estimates  = 200
		appends    = 200
		savePasses = 20
	)
	var wg sync.WaitGroup
	errc := make(chan error, readers+2)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			x := float64(i % 13)
			if err := h.Append(Observation{
				X:     []float64{x},
				Costs: []float64{2*x + 1, 0.5 * x},
			}); err != nil {
				errc <- err
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < estimates; i++ {
				e, err := est.EstimateCostValue(h, []float64{float64((r + i) % 10)})
				if err != nil {
					errc <- err
					return
				}
				if len(e.Metrics) != 2 {
					errc <- fmt.Errorf("estimate has %d metrics, want 2", len(e.Metrics))
					return
				}
			}
		}(r)
	}
	// Concurrent persistence: a snapshot must save cleanly mid-append.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < savePasses; i++ {
			if err := SaveSnapshot(h.Snapshot(), discard{}); err != nil {
				errc <- err
				return
			}
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestSnapshotImmutableUnderAppend verifies a snapshot is a frozen view:
// appends after the snapshot do not change what it exposes.
func TestSnapshotImmutableUnderAppend(t *testing.T) {
	h := seedHistory(t, 10)
	s := h.Snapshot()
	if s.Len() != 10 {
		t.Fatalf("snapshot Len = %d, want 10", s.Len())
	}
	v := s.Version()
	last := s.At(9)

	for i := 0; i < 50; i++ {
		if err := h.Append(Observation{X: []float64{99}, Costs: []float64{1, 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 10 {
		t.Errorf("snapshot Len changed to %d after appends", s.Len())
	}
	if s.Version() != v {
		t.Errorf("snapshot version changed: %d -> %d", v, s.Version())
	}
	if got := s.At(9); got.X[0] != last.X[0] || got.Costs[0] != last.Costs[0] {
		t.Errorf("snapshot observation changed: %+v -> %+v", last, got)
	}
	if h.Len() != 60 {
		t.Errorf("history Len = %d, want 60", h.Len())
	}
	if h.Version() == v {
		t.Error("history version did not advance on append")
	}
}

// TestCachedEstimateMatchesUncached asserts the model cache is purely a
// performance optimization: every field of the estimate is identical
// with and without it.
func TestCachedEstimateMatchesUncached(t *testing.T) {
	h := seedHistory(t, 40)
	cached, err := NewEstimator(Config{MMax: 15})
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := NewEstimator(Config{MMax: 15, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		x := []float64{float64(i % 9)}
		a, err := cached.EstimateCostValue(h, x)
		if err != nil {
			t.Fatal(err)
		}
		b, err := uncached.EstimateCostValue(h, x)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprintf("%+v", a.Values()), fmt.Sprintf("%+v", b.Values()); got != want {
			t.Fatalf("plan %d: cached values %s != uncached %s", i, got, want)
		}
		if a.WindowSize != b.WindowSize || a.Converged != b.Converged || a.Refits != b.Refits {
			t.Fatalf("plan %d: search stats diverge: cached {m=%d conv=%v refits=%d} uncached {m=%d conv=%v refits=%d}",
				i, a.WindowSize, a.Converged, a.Refits, b.WindowSize, b.Converged, b.Refits)
		}
		for n := range a.Metrics {
			am, bm := a.Metrics[n], b.Metrics[n]
			if am.R2 != bm.R2 || am.StdErr != bm.StdErr {
				t.Fatalf("plan %d metric %d: R2/StdErr diverge", i, n)
			}
		}
	}
}

// TestCacheReusesFitAcrossPlans is the Example 3.1 win in miniature:
// estimating many plans against one history version performs exactly
// one window search.
func TestCacheReusesFitAcrossPlans(t *testing.T) {
	h := seedHistory(t, 40)
	est, err := NewEstimator(Config{MMax: 15})
	if err != nil {
		t.Fatal(err)
	}
	const plans = 50
	for i := 0; i < plans; i++ {
		if _, err := est.EstimateCostValue(h, []float64{float64(i % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := est.CacheStats()
	if misses != 1 {
		t.Errorf("misses = %d, want 1 (one window search per history version)", misses)
	}
	if hits != plans-1 {
		t.Errorf("hits = %d, want %d", hits, plans-1)
	}

	// A new observation invalidates the fit: next estimate re-searches.
	if err := h.Append(Observation{X: []float64{3}, Costs: []float64{7, 1.5}}); err != nil {
		t.Fatal(err)
	}
	if _, err := est.EstimateCostValue(h, []float64{2}); err != nil {
		t.Fatal(err)
	}
	_, misses = est.CacheStats()
	if misses != 2 {
		t.Errorf("misses after append = %d, want 2", misses)
	}
}

// TestCacheDisabledForUniformSample: the recency ablation redraws its
// window per call, so caching must be off regardless of CacheSize.
func TestCacheDisabledForUniformSample(t *testing.T) {
	h := seedHistory(t, 40)
	est, err := NewEstimator(Config{MMax: 15, Window: UniformSample, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := est.EstimateCostValue(h, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := est.CacheStats()
	if hits != 0 || misses != 0 {
		t.Errorf("UniformSample used the cache: hits=%d misses=%d", hits, misses)
	}
}

// TestCacheEviction keeps the cache bounded as history versions grow.
func TestCacheEviction(t *testing.T) {
	h := seedHistory(t, 40)
	est, err := NewEstimator(Config{MMax: 15, CacheSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := est.EstimateCostValue(h, []float64{1}); err != nil {
			t.Fatal(err)
		}
		if err := h.Append(Observation{X: []float64{2}, Costs: []float64{5, 1}}); err != nil {
			t.Fatal(err)
		}
	}
	_, misses := est.CacheStats()
	if misses != 10 {
		t.Errorf("misses = %d, want 10 (every append invalidates)", misses)
	}
}
