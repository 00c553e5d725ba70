package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/regression"
	"repro/internal/stats"
)

func mustHistory(t *testing.T, dim int, metrics ...string) *History {
	t.Helper()
	h, err := NewHistory(dim, metrics...)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func mustEstimator(t *testing.T, cfg Config) *Estimator {
	t.Helper()
	e, err := NewEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// fillLinear appends n observations from a clean two-metric linear
// model: time = 1 + 2x₁ + 3x₂, money = 0.5 + x₁ + 0.1x₂ (+ optional noise).
func fillLinear(h *History, rng *stats.RNG, n int, noise float64) error {
	for i := 0; i < n; i++ {
		x1, x2 := rng.Uniform(0, 10), rng.Uniform(0, 10)
		timeC := 1 + 2*x1 + 3*x2
		moneyC := 0.5 + x1 + 0.1*x2
		if noise > 0 {
			timeC += rng.Normal(0, noise)
			moneyC += rng.Normal(0, noise)
		}
		if err := h.Append(Observation{X: []float64{x1, x2}, Costs: []float64{timeC, moneyC}}); err != nil {
			return err
		}
	}
	return nil
}

func TestNewHistoryValidation(t *testing.T) {
	if _, err := NewHistory(2); !errors.Is(err, ErrNoMetrics) {
		t.Errorf("no metrics: got %v, want ErrNoMetrics", err)
	}
	if _, err := NewHistory(0, "time"); err == nil {
		t.Error("zero dim accepted")
	}
	h := mustHistory(t, 2, "time", "money")
	if got := h.Metrics(); len(got) != 2 || got[0] != "time" {
		t.Errorf("Metrics = %v", got)
	}
	if h.Dim() != 2 {
		t.Errorf("Dim = %d", h.Dim())
	}
}

func TestHistoryAppendValidation(t *testing.T) {
	h := mustHistory(t, 2, "time")
	if err := h.Append(Observation{X: []float64{1}, Costs: []float64{1}}); err == nil {
		t.Error("short feature vector accepted")
	}
	if err := h.Append(Observation{X: []float64{1, 2}, Costs: []float64{1, 2}}); !errors.Is(err, ErrMetricCount) {
		t.Errorf("got %v, want ErrMetricCount", err)
	}
	if err := h.Append(Observation{X: []float64{1, 2}, Costs: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if h.Len() != 1 {
		t.Errorf("Len = %d, want 1", h.Len())
	}
}

func TestHistoryCopiesInputs(t *testing.T) {
	h := mustHistory(t, 1, "time")
	x := []float64{1}
	c := []float64{2}
	if err := h.Append(Observation{X: x, Costs: c}); err != nil {
		t.Fatal(err)
	}
	x[0], c[0] = 99, 99
	if h.At(0).X[0] != 1 || h.At(0).Costs[0] != 2 {
		t.Error("History aliases caller slices")
	}
}

func TestNewEstimatorValidation(t *testing.T) {
	if _, err := NewEstimator(Config{RequiredR2: 1.5}); err == nil {
		t.Error("RequiredR2 > 1 accepted")
	}
	if _, err := NewEstimator(Config{RequiredR2: -0.1}); err == nil {
		t.Error("negative RequiredR2 accepted")
	}
	if _, err := NewEstimator(Config{MMax: -1}); err == nil {
		t.Error("negative MMax accepted")
	}
	e := mustEstimator(t, Config{})
	if e.cfg.RequiredR2 != DefaultRequiredR2 {
		t.Errorf("default RequiredR2 = %v, want %v", e.cfg.RequiredR2, DefaultRequiredR2)
	}
}

func TestEstimateNeedsHistory(t *testing.T) {
	h := mustHistory(t, 2, "time")
	e := mustEstimator(t, Config{})
	if _, err := e.EstimateCostValue(h, []float64{1, 2}); !errors.Is(err, ErrInsufficientHistory) {
		t.Fatalf("got %v, want ErrInsufficientHistory", err)
	}
}

func TestEstimateFeatureDimension(t *testing.T) {
	h := mustHistory(t, 2, "time")
	e := mustEstimator(t, Config{})
	if _, err := e.EstimateCostValue(h, []float64{1}); err == nil {
		t.Error("wrong feature dimension accepted")
	}
}

func TestEstimateConvergesAtMinimumWindowOnCleanData(t *testing.T) {
	h := mustHistory(t, 2, "time", "money")
	rng := stats.NewRNG(1)
	if err := fillLinear(h, rng, 50, 0); err != nil {
		t.Fatal(err)
	}
	e := mustEstimator(t, Config{})
	est, err := e.EstimateCostValue(h, []float64{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !est.Converged {
		t.Error("clean linear data should converge")
	}
	// On noise-free data the minimal window m = L+2 = 4 already has R² = 1.
	if est.WindowSize != regression.MinObservations(2) {
		t.Errorf("WindowSize = %d, want %d", est.WindowSize, regression.MinObservations(2))
	}
	wantTime := 1.0 + 2*5 + 3*5
	wantMoney := 0.5 + 5 + 0.1*5
	vals := est.Values()
	if math.Abs(vals[0]-wantTime) > 1e-6 {
		t.Errorf("time estimate = %v, want %v", vals[0], wantTime)
	}
	if math.Abs(vals[1]-wantMoney) > 1e-6 {
		t.Errorf("money estimate = %v, want %v", vals[1], wantMoney)
	}
	if est.Metrics[0].Metric != "time" || est.Metrics[1].Metric != "money" {
		t.Errorf("metric order wrong: %+v", est.Metrics)
	}
	for _, m := range est.Metrics {
		if m.R2 < DefaultRequiredR2 {
			t.Errorf("metric %s converged with R² %v < threshold", m.Metric, m.R2)
		}
	}
}

func TestEstimateGrowsWindowUnderNoise(t *testing.T) {
	h := mustHistory(t, 2, "time", "money")
	rng := stats.NewRNG(2)
	if err := fillLinear(h, rng, 200, 6); err != nil { // strong noise
		t.Fatal(err)
	}
	e := mustEstimator(t, Config{RequiredR2: 0.9})
	est, err := e.EstimateCostValue(h, []float64{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if est.WindowSize <= regression.MinObservations(2) && est.Converged {
		t.Errorf("noisy data converged at minimal window %d — growth never exercised", est.WindowSize)
	}
	if est.WindowSize > h.Len() {
		t.Errorf("window %d exceeds history %d", est.WindowSize, h.Len())
	}
	if est.Refits < 2 {
		t.Errorf("Refits = %d, expected multiple fits under noise", est.Refits)
	}
}

func TestEstimateRespectsMMax(t *testing.T) {
	h := mustHistory(t, 2, "time")
	rng := stats.NewRNG(3)
	// Pure noise: R² will not reach 0.99, so the window must stop at MMax.
	for i := 0; i < 100; i++ {
		if err := h.Append(Observation{
			X:     []float64{rng.Uniform(0, 10), rng.Uniform(0, 10)},
			Costs: []float64{rng.Uniform(0, 100)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	e := mustEstimator(t, Config{RequiredR2: 0.99, MMax: 10})
	est, err := e.EstimateCostValue(h, []float64{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if est.WindowSize > 10 {
		t.Errorf("window %d exceeds MMax 10", est.WindowSize)
	}
	if est.Converged {
		t.Error("pure noise reported convergence at R² ≥ 0.99")
	}
}

func TestEstimateUsesMostRecentData(t *testing.T) {
	// Regime change: old observations follow cost = x, recent ones
	// follow cost = 10x. DREAM's most-recent window must track the new
	// regime.
	h := mustHistory(t, 1, "time")
	rng := stats.NewRNG(4)
	for i := 0; i < 50; i++ {
		x := rng.Uniform(1, 10)
		if err := h.Append(Observation{X: []float64{x}, Costs: []float64{x}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		x := rng.Uniform(1, 10)
		if err := h.Append(Observation{X: []float64{x}, Costs: []float64{10 * x}}); err != nil {
			t.Fatal(err)
		}
	}
	e := mustEstimator(t, Config{})
	est, err := e.EstimateCostValue(h, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	got := est.Values()[0]
	if math.Abs(got-50) > 5 {
		t.Errorf("estimate after regime change = %v, want ≈50 (new regime)", got)
	}
}

func TestDoublingGrowth(t *testing.T) {
	h := mustHistory(t, 1, "time")
	rng := stats.NewRNG(5)
	for i := 0; i < 64; i++ {
		x := rng.Uniform(1, 10)
		if err := h.Append(Observation{X: []float64{x}, Costs: []float64{rng.Uniform(0, 100)}}); err != nil {
			t.Fatal(err)
		}
	}
	one := mustEstimator(t, Config{RequiredR2: 0.999, Growth: GrowByOne})
	dbl := mustEstimator(t, Config{RequiredR2: 0.999, Growth: Doubling})
	estOne, err := one.EstimateCostValue(h, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	estDbl, err := dbl.EstimateCostValue(h, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if estDbl.Refits >= estOne.Refits {
		t.Errorf("doubling refits (%d) not fewer than grow-by-one (%d)", estDbl.Refits, estOne.Refits)
	}
}

func TestEstimateValuesOrder(t *testing.T) {
	h := mustHistory(t, 1, "a", "b", "c")
	rng := stats.NewRNG(9)
	for i := 0; i < 10; i++ {
		x := rng.Uniform(1, 10)
		if err := h.Append(Observation{X: []float64{x}, Costs: []float64{x, 2 * x, 3 * x}}); err != nil {
			t.Fatal(err)
		}
	}
	e := mustEstimator(t, Config{})
	est, err := e.EstimateCostValue(h, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	v := est.Values()
	if math.Abs(v[0]-2) > 1e-6 || math.Abs(v[1]-4) > 1e-6 || math.Abs(v[2]-6) > 1e-6 {
		t.Errorf("Values = %v, want [2 4 6]", v)
	}
}

// Property: the converged window is always within [L+2, max(MMax, L+2)]
// and never exceeds the history length.
func TestPropertyWindowBounds(t *testing.T) {
	rng := stats.NewRNG(10)
	f := func(nRaw, mmaxRaw uint8, noisy bool) bool {
		n := int(nRaw%60) + 4
		mmax := int(mmaxRaw % 40)
		h, err := NewHistory(1, "time")
		if err != nil {
			return false
		}
		noise := 0.0
		if noisy {
			noise = 5
		}
		for i := 0; i < n; i++ {
			x := rng.Uniform(1, 10)
			if err := h.Append(Observation{X: []float64{x}, Costs: []float64{3*x + rng.Normal(0, noise)}}); err != nil {
				return false
			}
		}
		e, err := NewEstimator(Config{MMax: mmax})
		if err != nil {
			return false
		}
		est, err := e.EstimateCostValue(h, []float64{5})
		if err != nil {
			return false
		}
		minM := regression.MinObservations(1)
		if est.WindowSize < minM || est.WindowSize > h.Len() {
			return false
		}
		if mmax >= minM && est.WindowSize > mmax && mmax <= h.Len() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: on noise-free linear histories DREAM's estimate equals the
// true model output regardless of history length.
func TestPropertyExactOnLinearData(t *testing.T) {
	rng := stats.NewRNG(11)
	f := func(nRaw uint8, b0f, b1f float64) bool {
		if math.IsNaN(b0f) || math.IsNaN(b1f) {
			return true
		}
		b0 := math.Mod(b0f, 100)
		b1 := math.Mod(b1f, 100)
		n := int(nRaw%40) + 3
		h, err := NewHistory(1, "time")
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			x := rng.Uniform(1, 10)
			if err := h.Append(Observation{X: []float64{x}, Costs: []float64{b0 + b1*x}}); err != nil {
				return false
			}
		}
		e, err := NewEstimator(Config{})
		if err != nil {
			return false
		}
		est, err := e.EstimateCostValue(h, []float64{4})
		if err != nil {
			return false
		}
		want := b0 + b1*4
		tol := 1e-5 * (1 + math.Abs(want))
		return math.Abs(est.Values()[0]-want) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestBoundedHistory pins what a retention bound changes and what it
// must not: Len, Version and every index keep counting from the first
// observation, Base follows RetainedBase, and an estimator whose window
// fits inside the bound — or asks for "the whole history" — cannot tell
// the bounded history from a fresh one holding the same suffix.
func TestBoundedHistory(t *testing.T) {
	const retain, n = 16, 101 // 101: the newest three observations are not collinear
	full := seedHistory(t, n)
	bounded := seedHistory(t, 10)
	bounded.SetRetain(retain)
	for i := 10; i < n; i++ {
		if err := bounded.Append(full.At(i)); err != nil {
			t.Fatal(err)
		}
		held := bounded.Len() - bounded.Base()
		if bounded.Base() != int(RetainedBase(uint64(i+1), retain)) || (i+1 >= retain && (held < retain || held >= 2*retain)) {
			t.Fatalf("after %d appends: base %d, %d held, bound %d", i+1, bounded.Base(), held, retain)
		}
	}
	if bounded.Len() != n || bounded.Version() != n || bounded.Base() != 80 {
		t.Fatalf("Len, Version, Base = %d, %d, %d, want %d, %d, 80", bounded.Len(), bounded.Version(), bounded.Base(), n, n)
	}
	// The same suffix as a history of its own, resumed at the base.
	resumed, err := NewHistoryAt(bounded.Base(), 1, "time_s", "money_usd")
	if err != nil {
		t.Fatal(err)
	}
	for i := bounded.Base(); i < n; i++ {
		if got, want := fmt.Sprint(bounded.At(i)), fmt.Sprint(full.At(i)); got != want {
			t.Fatalf("At(%d) = %s, want %s", i, got, want)
		}
		if err := resumed.Append(full.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	if resumed.Len() != n || resumed.Version() != n || resumed.Base() != bounded.Base() {
		t.Fatalf("resumed Len, Version, Base = %d, %d, %d", resumed.Len(), resumed.Version(), resumed.Base())
	}
	for _, tc := range []struct {
		mmax int
		ref  *History // what the bounded estimate must equal
	}{{12, full}, {0, resumed}} {
		est, err := NewEstimator(Config{MMax: tc.mmax, RequiredR2: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := est.EstimateCostValue(bounded, []float64{5})
		if err != nil {
			t.Fatal(err)
		}
		want, err := est.EstimateCostValue(tc.ref, []float64{5})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Values()) != fmt.Sprint(want.Values()) || got.WindowSize != want.WindowSize {
			t.Errorf("MMax %d: bounded %v over %d, reference %v over %d", tc.mmax, got.Values(), got.WindowSize, want.Values(), want.WindowSize)
		}
		if tc.mmax == 0 && got.WindowSize != n-bounded.Base() {
			t.Errorf("whole-history window = %d, want the %d held", got.WindowSize, n-bounded.Base())
		}
	}
	// Lifting the bound brings nothing back; a tighter one trims at once.
	bounded.SetRetain(0)
	if bounded.Base() != 80 {
		t.Errorf("Base after lifting the bound = %d, want 80", bounded.Base())
	}
	full.SetRetain(retain)
	if full.Base() != 80 || full.Len() != n {
		t.Errorf("SetRetain on a long history: Base, Len = %d, %d, want 80, %d", full.Base(), full.Len(), n)
	}
	// A saved document holds what the history holds.
	var doc bytes.Buffer
	if err := SaveSnapshot(full.Snapshot(), &doc); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadHistory(&doc)
	if err != nil || loaded.Len() != n-80 || fmt.Sprint(loaded.At(0)) != fmt.Sprint(full.At(80)) {
		t.Errorf("saved bounded history loads as %d observations (err %v), want %d", loaded.Len(), err, n-80)
	}
	if _, err := NewHistoryAt(-1, 1, "time_s"); err == nil {
		t.Error("negative base accepted")
	}
}
