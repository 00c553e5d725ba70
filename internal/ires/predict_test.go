package ires

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/regression"
)

// randomHistory draws a history of one of four shapes: noisy-linear,
// exactly collinear features (a singular window: the ridge fallback),
// near-collinear features (ill-conditioned), and costs trending below
// zero (so the models' clamp has work to do). n may be shorter than
// MinObservations.
func randomHistory(t *testing.T, rng *rand.Rand, dim, n int, metrics []string) *core.History {
	t.Helper()
	h, err := core.NewHistory(dim, metrics...)
	if err != nil {
		t.Fatal(err)
	}
	shape := rng.Intn(4)
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		for k := range x {
			x[k] = rng.Float64() * 100
		}
		if dim > 1 {
			switch shape {
			case 1:
				x[1] = 2 * x[0]
			case 2:
				x[1] = x[0] * (1 + 1e-13*rng.Float64())
			}
		}
		costs := make([]float64, len(metrics))
		for m := range costs {
			costs[m] = float64(m+1)*x[0] - 3*x[dim-1] + rng.NormFloat64()*20
			if shape == 3 {
				costs[m] -= 400
			}
		}
		if err := h.Append(core.Observation{X: x, Costs: costs}); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// clampZero is the reference clamp the composite's expected value is
// built with.
func clampZero(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameFailure: both nil, or the same message wrapping the same
// sentinels.
func sameFailure(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	return got.Error() == want.Error() &&
		errors.Is(got, core.ErrInsufficientHistory) == errors.Is(want, core.ErrInsufficientHistory) &&
		errors.Is(got, regression.ErrDimension) == errors.Is(want, regression.ErrDimension)
}

// TestPredictOnlyMatchesEstimator: the models score plans through the
// estimator's predict-only path; the cost vector must be, bit for bit,
// what the interval-carrying Estimator.EstimateSnapshot yields after the
// model's own clamp and composition, and fail exactly when it fails —
// with the model cache on and off.
func TestPredictOnlyMatchesEstimator(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var ridged, short, negative int
	for trial := 0; trial < 400; trial++ {
		dim := 1 + rng.Intn(5)
		n := rng.Intn(4 * (dim + 2))
		cfg := core.Config{MMax: 3 * (dim + 2)}
		if trial%2 == 1 {
			cfg.CacheSize = -1
		}
		ref, err := core.NewEstimator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dream, err := NewDREAMModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		composite, err := NewCompositeDREAMModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		plain := randomHistory(t, rng, dim, n, federation.Metrics).Snapshot()
		pieces := randomHistory(t, rng, dim, n, federation.BreakdownMetrics).Snapshot()
		if n < regression.MinObservations(dim) {
			short++
		}

		for plan := 0; plan < 6; plan++ {
			x := make([]float64, dim)
			if plan == 5 {
				x = make([]float64, dim+1) // wrong dimension: the error must match too
			}
			for k := range x {
				x[k] = rng.Float64() * 120
			}

			est, wantErr := ref.EstimateSnapshot(plain, x)
			var want []float64
			if wantErr == nil {
				want = est.Values()
				for i, v := range want {
					if v < 0 {
						want[i] = 0
						negative++
					}
					if est.Metrics[i].Model.Ridge > 0 {
						ridged++
					}
				}
			}
			got, err := dream.EstimateSnapshot(plain, x)
			if !sameFailure(err, wantErr) || !equalBits(got, want) {
				t.Fatalf("trial %d plan %d (dim %d, n %d): DREAMModel = %v, %v; estimator gives %v, %v",
					trial, plan, dim, n, got, err, want, wantErr)
			}

			est, wantErr = ref.EstimateSnapshot(pieces, x)
			want = nil
			if wantErr == nil {
				v := est.Values()
				prep := math.Max(clampZero(v[bdLeft]), clampZero(v[bdRight]))
				want = []float64{prep + clampZero(v[bdShip]) + clampZero(v[bdFinal]), clampZero(v[bdMoney])}
			}
			got, err = composite.EstimateSnapshot(pieces, x)
			if !sameFailure(err, wantErr) || !equalBits(got, want) {
				t.Fatalf("trial %d plan %d (dim %d, n %d): CompositeDREAMModel = %v, %v; estimator gives %v, %v",
					trial, plan, dim, n, got, err, want, wantErr)
			}
		}
	}
	if ridged == 0 || short == 0 || negative == 0 {
		t.Errorf("generator missed a regime: %d ridge-fallback fits, %d short histories, %d clamped predictions",
			ridged, short, negative)
	}

	// The composite's own precondition is checked before the estimator's.
	composite, err := NewCompositeDREAMModel(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := composite.EstimateSnapshot(randomHistory(t, rng, 2, 0, federation.Metrics).Snapshot(), []float64{1}); err == nil ||
		errors.Is(err, core.ErrInsufficientHistory) {
		t.Errorf("2-metric history: got %v, want the breakdown-history error", err)
	}
}
