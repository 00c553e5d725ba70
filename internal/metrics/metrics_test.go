package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // dropped: counters are monotone
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	if again := r.Counter("test_ops_total", "ops"); again != c {
		t.Fatalf("re-registration returned a different counter")
	}

	g := r.GaugeVec("test_depth", "depth", "queue").With("a")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}
}

func TestVecSeriesIdentity(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_req_total", "requests", "federation", "query")
	a := v.With("main", "Q12")
	b := v.With("main", "Q13")
	if a == b {
		t.Fatalf("distinct label values shared a counter")
	}
	if v.With("main", "Q12") != a {
		t.Fatalf("same label values produced a new counter")
	}
	a.Inc()
	if b.Value() != 0 {
		t.Fatalf("increment leaked across series")
	}
}

func TestRegistrationConflictsPanic(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_x_total", "x")
	for name, f := range map[string]func(){
		"kind":   func() { r.GaugeVec("test_x_total", "x", "l") },
		"help":   func() { r.Counter("test_x_total", "different") },
		"labels": func() { r.CounterVec("test_x_total", "x", "l") },
		"name":   func() { r.Counter("bad name", "x") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s conflict did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_lat_seconds", "latency", []float64{0.1, 0.2, 0.5, 1})
	// 100 observations spread uniformly over (0, 1): quantile estimates
	// should land near the true values at bucket-interpolation accuracy.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if math.Abs(h.Sum()-50.5) > 1e-9 {
		t.Fatalf("sum = %v, want 50.5", h.Sum())
	}
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.50, 0.50, 0.02},
		{0.90, 0.90, 0.02},
		{0.99, 0.99, 0.02},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > tc.tol {
			t.Errorf("Quantile(%v) = %v, want %v ± %v", tc.q, got, tc.want, tc.tol)
		}
	}
	// Above every finite bucket: the estimate clamps to the top bound.
	h.Observe(100)
	if got := h.Quantile(1); got != 1 {
		t.Errorf("Quantile(1) with +Inf observation = %v, want 1", got)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_empty_seconds", "empty", nil)
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
}

func TestRenderParsesAndHistogramMonotone(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_a_total", "a").Add(3)
	r.GaugeVec("test_b", "b", "who").With(`we "quote" back\slash`).Set(-1.5)
	h := r.HistogramVec("test_c_seconds", "c", []float64{0.1, 1}, "query")
	h.With("Q12").Observe(0.05)
	h.With("Q12").Observe(0.5)
	h.With("Q12").Observe(5)
	r.GaugeFunc("test_d", "d", func() float64 { return 42 }, "kind", "func")
	r.CounterFunc("test_e_total", "e", func() float64 { return 7 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	sc, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("scrape does not parse: %v\n%s", err, text)
	}
	if sc.Types["test_a_total"] != KindCounter || sc.Types["test_c_seconds"] != KindHistogram {
		t.Fatalf("TYPE lines wrong: %v", sc.Types)
	}
	if got := sc.Values["test_a_total"]; got != 3 {
		t.Errorf("test_a_total = %v, want 3", got)
	}
	if got := sc.Values[`test_b{who="we \"quote\" back\\slash"}`]; got != -1.5 {
		t.Errorf("escaped gauge = %v, want -1.5 (values: %v)", got, sc.Values)
	}
	if got := sc.Values[`test_d{kind="func"}`]; got != 42 {
		t.Errorf("gauge func = %v, want 42", got)
	}
	if got := sc.Values["test_e_total"]; got != 7 {
		t.Errorf("counter func = %v, want 7", got)
	}
	// Histogram grammar: cumulative buckets are monotone and the +Inf
	// bucket equals _count.
	b1 := sc.Values[`test_c_seconds_bucket{query="Q12",le="0.1"}`]
	b2 := sc.Values[`test_c_seconds_bucket{query="Q12",le="1"}`]
	bInf := sc.Values[`test_c_seconds_bucket{query="Q12",le="+Inf"}`]
	count := sc.Values[`test_c_seconds_count{query="Q12"}`]
	if !(b1 <= b2 && b2 <= bInf) {
		t.Errorf("buckets not monotone: %v %v %v", b1, b2, bInf)
	}
	if b1 != 1 || b2 != 2 || bInf != 3 || count != 3 {
		t.Errorf("bucket counts = %v %v %v count %v, want 1 2 3 3", b1, b2, bInf, count)
	}
	if got := sc.Values[`test_c_seconds_sum{query="Q12"}`]; math.Abs(got-5.55) > 1e-9 {
		t.Errorf("sum = %v, want 5.55", got)
	}
	// Idle registry ⇒ byte-identical scrapes.
	var b2nd strings.Builder
	if err := r.WritePrometheus(&b2nd); err != nil {
		t.Fatal(err)
	}
	if b2nd.String() != text {
		t.Errorf("consecutive idle scrapes differ")
	}
}

func TestConcurrentObservationsUnderRace(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_race_total", "race")
	g := r.GaugeVec("test_race_gauge", "race", "worker").With("w")
	h := r.Histogram("test_race_seconds", "race", []float64{0.5})
	vec := r.CounterVec("test_race_vec_total", "race", "worker")

	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := vec.With("w") // all workers share one series
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%2) * 0.9)
				mine.Inc()
			}
		}(w)
		// A scraper races the writers; values must stay parseable.
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
			if _, err := ParseText(strings.NewReader(b.String())); err != nil {
				t.Errorf("mid-load scrape does not parse: %v", err)
			}
		}()
	}
	wg.Wait()
	want := float64(workers * perWorker)
	if c.Value() != want || g.Value() != want || vec.With("w").Value() != want {
		t.Fatalf("lost updates: counter %v gauge %v vec %v, want %v",
			c.Value(), g.Value(), vec.With("w").Value(), want)
	}
	if h.Count() != uint64(want) {
		t.Fatalf("histogram lost observations: %d, want %v", h.Count(), want)
	}
}

func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(1e-6, 10, 4)
	want := []float64{1e-6, 1e-5, 1e-4, 1e-3}
	for i := range want {
		if math.Abs(got[i]-want[i]) > want[i]*1e-12 {
			t.Fatalf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
}
