package ires

import (
	"testing"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/stats"
)

func TestCompositeModelValidation(t *testing.T) {
	if _, err := NewCompositeDREAMModel(core.Config{RequiredR2: 5}); err == nil {
		t.Error("invalid config accepted")
	}
	m, err := NewCompositeDREAMModel(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "dream-composite" {
		t.Errorf("Name = %q", m.Name())
	}
	// A plain 2-metric history is rejected.
	h, err := core.NewHistory(federation.FeatureDim, federation.Metrics...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.EstimateSnapshot(h.Snapshot(), make([]float64, federation.FeatureDim)); err == nil {
		t.Error("2-metric history accepted by composite model")
	}
}

func TestCompositeModelReassemblesTime(t *testing.T) {
	// Build a synthetic breakdown history where the pieces are clean
	// linear functions; the composite must reproduce max+sum exactly.
	h, err := core.NewHistory(federation.FeatureDim, federation.BreakdownMetrics...)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(61)
	piece := func(x []float64) (left, right, ship, final float64) {
		left = 1 + 0.02*x[0] + 0.5*x[2]
		right = 2 + 0.1*x[1]
		ship = 0.5 + 0.001*x[0]
		final = 1 + 0.01*x[0]
		return
	}
	for i := 0; i < 60; i++ {
		x := []float64{rng.Uniform(50, 150), rng.Uniform(5, 15), float64(rng.Intn(4) + 1), float64(rng.Intn(4) + 1), float64(rng.Intn(2))}
		l, r, s, f := piece(x)
		total := l
		if r > total {
			total = r
		}
		total += s + f
		money := total * 0.001
		if err := h.Append(core.Observation{X: x, Costs: []float64{total, money, l, r, s, f}}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := NewCompositeDREAMModel(core.Config{MMax: 21})
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{100, 10, 2, 2, 1}
	got, err := m.EstimateSnapshot(h.Snapshot(), x)
	if err != nil {
		t.Fatal(err)
	}
	l, r, s, f := piece(x)
	want := l
	if r > want {
		want = r
	}
	want += s + f
	if diff := got[0] - want; diff > 0.3 || diff < -0.3 {
		t.Errorf("composite time = %v, want ≈%v", got[0], want)
	}
	if len(got) != 2 {
		t.Errorf("composite returns %d metrics, want 2", len(got))
	}
}
