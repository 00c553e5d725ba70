package core

import (
	"fmt"
	"sync"
	"sync/atomic"
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
// appends after the snapshot do not change what it exposes — not even
// the ones that trim a bounded history, which move it to a new array
// while a reader is still walking the snapshot's (run under -race).
func TestSnapshotImmutableUnderAppend(t *testing.T) {
	for _, retain := range []int{0, 8} {
		t.Run(fmt.Sprintf("retain=%d", retain), func(t *testing.T) {
			h := seedHistory(t, 10)
			h.SetRetain(retain)
			s := h.Snapshot()
			if s.Len() != 10 || s.Base() != 0 {
				t.Fatalf("snapshot Len, Base = %d, %d, want 10, 0", s.Len(), s.Base())
			}
			v := s.Version()
			want := fmt.Sprintf("%+v", snapshotObs(s))

			stop, done := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if got := fmt.Sprintf("%+v", snapshotObs(s)); got != want {
						t.Errorf("snapshot observations changed under append:\n%s\nwant\n%s", got, want)
						return
					}
				}
			}()
			for i := 0; i < 50; i++ {
				if err := h.Append(Observation{X: []float64{99}, Costs: []float64{1, 1}}); err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			<-done
			if s.Len() != 10 || s.Base() != 0 {
				t.Errorf("snapshot Len, Base changed to %d, %d after appends", s.Len(), s.Base())
			}
			if s.Version() != v {
				t.Errorf("snapshot version changed: %d -> %d", v, s.Version())
			}
			if got := fmt.Sprintf("%+v", snapshotObs(s)); got != want {
				t.Errorf("snapshot observations changed:\n%s\nwant\n%s", got, want)
			}
			if h.Len() != 60 || h.Version() != 60 {
				t.Errorf("history Len, Version = %d, %d, want 60, 60", h.Len(), h.Version())
			}
			// 60 appended, bound 8: everything below (60/8 − 1)·8 went.
			if wantBase := int(RetainedBase(60, uint64(retain))); h.Base() != wantBase || (retain > 0 && wantBase != 48) {
				t.Errorf("history Base = %d, want %d", h.Base(), wantBase)
			}
		})
	}
}

// snapshotObs copies out every observation a snapshot holds.
func snapshotObs(s *Snapshot) []Observation {
	out := make([]Observation, 0, s.Len()-s.Base())
	for i := s.Base(); i < s.Len(); i++ {
		out = append(out, s.At(i))
	}
	return out
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
			if am.R2 != bm.R2 {
				t.Fatalf("plan %d metric %d: R2 diverges", i, n)
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

// hammerFitCache runs estimator goroutines over several histories while
// appenders move their versions, through both entry points. Every
// estimate is checked against an uncached estimator on the same
// snapshot, so a fit served for the wrong (history, version) shows as a
// wrong value. It returns the number of cached-estimator calls and the
// distinct (history, version) keys they asked for.
func hammerFitCache(t *testing.T, est *Estimator, during func(histories []*History) error) (calls uint64, keys int) {
	t.Helper()
	const (
		nHist      = 3
		estimators = 6
		rounds     = 120
		plans      = 8
		appenders  = 2
		appends    = 40
	)
	ref, err := NewEstimator(Config{MMax: est.cfg.MMax, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	histories := make([]*History, nHist)
	for i := range histories {
		histories[i] = seedHistory(t, 20+5*i)
	}
	type key struct {
		hist    int
		version uint64
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		seen = map[key]bool{}
		errc = make(chan error, estimators+appenders+1)
		n    atomic.Uint64
	)
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < appends; i++ {
				x := float64((a + i) % 13)
				if err := histories[(a+i)%nHist].Append(Observation{X: []float64{x}, Costs: []float64{2*x + 1, 0.5 * x}}); err != nil {
					errc <- err
					return
				}
			}
		}(a)
	}
	for g := 0; g < estimators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				hi := (g + r) % nHist
				s := histories[hi].Snapshot()
				mu.Lock()
				seen[key{hi, s.Version()}] = true
				mu.Unlock()
				x := []float64{float64(r % 10)}
				refEst, err := ref.EstimateSnapshot(s, x)
				if err != nil {
					errc <- err
					return
				}
				want := fmt.Sprint(refEst.Values())
				for p := 0; p < plans; p++ {
					var got []float64
					if p%2 == 0 {
						got, err = est.PredictSnapshot(nil, s, x)
					} else {
						var e *Estimate
						if e, err = est.EstimateSnapshot(s, x); err == nil {
							got = e.Values()
						}
					}
					n.Add(1)
					if err != nil {
						errc <- err
						return
					}
					if fmt.Sprint(got) != want {
						errc <- fmt.Errorf("history %d version %d: got %v, uncached reference %s", hi, s.Version(), got, want)
						return
					}
				}
			}
		}(g)
	}
	if during != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := during(histories); err != nil {
				errc <- err
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	return n.Load(), len(seen)
}

// TestFitCacheHammer pins the lock-free repeat-key path to the cache's
// contract under -race: one window search per (history, version) no
// matter how many goroutines race on a fresh key, a hit or a miss
// counted for every call, and nothing cached surviving SetCacheSize.
func TestFitCacheHammer(t *testing.T) {
	t.Run("one search per key", func(t *testing.T) {
		est, err := NewEstimator(Config{MMax: 12, CacheSize: 1024}) // room for every key: no eviction
		if err != nil {
			t.Fatal(err)
		}
		calls, keys := hammerFitCache(t, est, nil)
		st := est.Stats()
		if st.WindowSearches != uint64(keys) || st.CacheMisses != uint64(keys) {
			t.Errorf("%d window searches, %d misses for %d distinct (history, version) keys", st.WindowSearches, st.CacheMisses, keys)
		}
		if st.CacheHits+st.CacheMisses != calls {
			t.Errorf("hits %d + misses %d != %d calls", st.CacheHits, st.CacheMisses, calls)
		}
	})
	t.Run("SetCacheSize drops every fit", func(t *testing.T) {
		est, err := NewEstimator(Config{MMax: 12, CacheSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		_, keys := hammerFitCache(t, est, func(histories []*History) error {
			for i := 0; i < 50; i++ {
				s := histories[i%len(histories)].Snapshot()
				before, err := est.fitFor(s, 1)
				if err != nil {
					return err
				}
				again, err := est.fitFor(s, 1)
				if err != nil {
					return err
				}
				if again != before {
					return fmt.Errorf("resize %d: a repeated key was searched twice within one cache", i)
				}
				est.SetCacheSize(1024)
				after, err := est.fitFor(s, 1)
				if err != nil {
					return err
				}
				if after == before {
					return fmt.Errorf("resize %d: a fit cached before SetCacheSize was served after it", i)
				}
			}
			return nil
		})
		if got := est.Stats().WindowSearches; got < uint64(keys) {
			t.Errorf("%d window searches for %d distinct keys", got, keys)
		}
	})
}

// TestFitCacheCachesErrors: a window search that fails for one plan
// fails identically, and without searching again, for every plan of the
// same version — on the repeat-key path too.
func TestFitCacheCachesErrors(t *testing.T) {
	c := newFitCache(4)
	k := fitKey{owner: seedHistory(t, 1), version: 1}
	boom := fmt.Errorf("singular")
	searches := 0
	for i := 0; i < 5; i++ {
		ent := c.entry(k, 1)
		ent.once.Do(func() { searches++; ent.err = boom })
		if ent.err != boom {
			t.Fatalf("call %d: err = %v", i, ent.err)
		}
	}
	if hits, misses := c.stats(); searches != 1 || hits != 4 || misses != 1 {
		t.Errorf("searches %d, hits %d, misses %d; want 1, 4, 1", searches, hits, misses)
	}
}

// With caching off there is no cache and no slot: every call searches.
func TestNoFastPathWhenCachingOff(t *testing.T) {
	h := seedHistory(t, 40)
	est, err := NewEstimator(Config{MMax: 15, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	s := h.Snapshot()
	for i := 0; i < 5; i++ {
		if _, err := est.PredictSnapshot(nil, s, []float64{2}); err != nil {
			t.Fatal(err)
		}
	}
	if st := est.Stats(); st.WindowSearches != 5 || st.CacheHits != 0 || st.CacheMisses != 0 || est.cache.Load() != nil {
		t.Errorf("caching off: %+v", st)
	}
}
