package ires

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/moo"
	"repro/internal/regression"
	"repro/internal/tpch"
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

// predictCosts is the reference the lattice walk is held to: each
// plan's feature row, each model's Predict of it, clamped at zero.
func predictCosts(t testing.TB, models []*regression.Model, plans []federation.Plan, leftMiB, rightMiB float64) []float64 {
	t.Helper()
	out := make([]float64, 0, len(plans)*len(models))
	var x []float64
	for _, p := range plans {
		x = federation.AppendFeatures(x[:0], p, leftMiB, rightMiB)
		for _, m := range models {
			v, err := m.Predict(x)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, clampCost(v))
		}
	}
	return out
}

// requireSameBits fails unless got and want, k = len(models) costs per
// plan, have the same bits — where one is a NaN, any NaN when a
// coefficient or table size is itself NaN. Which NaN an operation on two
// NaNs returns is the operand order the compiler picked for a
// commutative add, not part of any contract; from NaN-free coefficients
// and sizes every NaN is the hardware's one default NaN (Inf·0,
// Inf−Inf), and those are compared bit for bit.
func requireSameBits(t testing.TB, gotName string, got []float64, wantName string, want []float64, models []*regression.Model, plans []federation.Plan, leftMiB, rightMiB float64) {
	t.Helper()
	nanIn := math.IsNaN(leftMiB) || math.IsNaN(rightMiB)
	for _, m := range models {
		for _, b := range m.Beta {
			nanIn = nanIn || math.IsNaN(b)
		}
	}
	for i, w := range want {
		if g := got[i]; math.Float64bits(g) != math.Float64bits(w) && !(nanIn && math.IsNaN(g) && math.IsNaN(w)) {
			k := len(models)
			t.Fatalf("plan %d (%v) of %d, metric %d, sizes %v/%v, β %v: %s %v (%#x), %s %v (%#x)",
				i/k, plans[i/k], len(plans), i%k, leftMiB, rightMiB, models[i%k].Beta,
				gotName, g, math.Float64bits(g), wantName, w, math.Float64bits(w))
		}
	}
}

// fixedLinear is a LinearCostModel whose every fit lookup returns
// models; nothing else of it is called.
type fixedLinear struct {
	LinearCostModel
	models []*regression.Model
}

func (m fixedLinear) LinearModels(*core.Snapshot, int, int) ([]*regression.Model, error) {
	return m.models, nil
}

// requireWalkMatchesPlans fails unless a full sweep's walk of lat
// scores exactly predictCosts' bits over lat.Plans(); and unless, with
// its last model swapped for one over 4 features, the walk refuses the
// models as regression.ErrDimension.
func requireWalkMatchesPlans(t testing.TB, models []*regression.Model, lat *federation.PlanLattice, leftMiB, rightMiB float64) {
	t.Helper()
	walk := func(models []*regression.Model) (moo.CostMatrix, error) {
		ps := &planSweeper{lat: lat, linear: fixedLinear{models: models}, leftMiB: leftMiB, rightMiB: rightMiB, buf: new(sweepBuf)}
		return ps.walk(context.Background())
	}
	costs, err := walk(models)
	if err != nil {
		t.Fatal(err)
	}
	plans := lat.Plans()
	want := predictCosts(t, models, plans, leftMiB, rightMiB)
	if costs.Len() != len(plans) || costs.Len()*len(models) != len(want) {
		t.Fatalf("walk scored %d plans, the lattice has %d", costs.Len(), len(plans))
	}
	got := make([]float64, 0, len(want))
	for i := 0; i < costs.Len(); i++ {
		got = append(got, costs.Row(i)...)
	}
	requireSameBits(t, "walk", got, "Predict", want, models, plans, leftMiB, rightMiB)

	short := append(slices.Clone(models[:len(models)-1]), &regression.Model{Beta: make([]float64, 5), L: 4})
	if _, err := walk(short); !errors.Is(err, regression.ErrDimension) {
		t.Fatalf("a model over 4 features: %v, want ErrDimension", err)
	}
}

// linearModel is a fitted-looking model over the plan features.
func linearModel(beta []float64) *regression.Model {
	return &regression.Model{Beta: beta, L: federation.FeatureDim}
}

// TestLinearScoringMatchesPredict: the linear kernel scores rows of
// plans straight from their node counts, bit for bit as Model.Predict
// does from each plan's feature row, clamped — over random and
// adversarial coefficients, table sizes and node counts (negatives, ±0,
// denormals, overflow, ±Inf, NaN), both join sides, odd and even metric
// counts, and left and right axes of any length and order, repeats
// included. It writes nothing outside its rows. A model over other
// features is ErrDimension.
func TestLinearScoringMatchesPredict(t *testing.T) {
	pool := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -3.25, 5e-324, -5e-324, 2.2e-308,
		1e300, -1e300, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 1e-5, 7, 1 << 20}
	rng := rand.New(rand.NewSource(27))
	draw := func(scale float64) float64 {
		if rng.Intn(5) == 0 {
			return pool[rng.Intn(len(pool))]
		}
		return rng.NormFloat64() * scale
	}
	axis := func(n int) []int {
		a := make([]int, n)
		for i := range a {
			a[i] = 1 + rng.Intn(96)
			if rng.Intn(4) == 0 {
				a[i] = rng.Intn(1 << 16)
			}
		}
		return a
	}
	const sentinel = 42
	for trial := 0; trial < 300; trial++ {
		k := []int{1, 2, 3, 6, 7}[trial%5]
		models := make([]*regression.Model, k)
		for mi := range models {
			beta := make([]float64, federation.FeatureDim+1)
			for j := range beta {
				beta[j] = draw(10)
			}
			models[mi] = linearModel(beta)
		}
		if err := checkLinear(models); err != nil {
			t.Fatal(err)
		}
		leftMiB, rightMiB := math.Abs(rng.NormFloat64()*500), math.Abs(rng.NormFloat64()*50)
		if trial%7 == 0 {
			leftMiB, rightMiB = draw(500), draw(50)
		}
		for _, n := range []int{0, 1, 2, 3, 5, 8, 9, 40} {
			left, right := axis(n), axis(1+rng.Intn(9))
			side := len(left) * len(right) * k
			out := make([]float64, 1+2*side+1)
			out[0], out[len(out)-1] = sentinel, sentinel
			walkLinearCosts(out, models, left, right, 1, side, leftMiB, rightMiB)
			if out[0] != sentinel || out[len(out)-1] != sentinel {
				t.Fatalf("%d×%d rows, %d metrics: wrote outside its rows", len(left), len(right), k)
			}
			plans := make([]federation.Plan, 0, 2*len(left)*len(right))
			for _, join := range []bool{true, false} {
				for _, nl := range left {
					for _, nr := range right {
						plans = append(plans, federation.Plan{Query: tpch.QueryQ12, JoinAtLeft: join, NodesLeft: nl, NodesRight: nr})
					}
				}
			}
			want := predictCosts(t, models, plans, leftMiB, rightMiB)
			requireSameBits(t, "kernel", out[1:len(out)-1], "Predict", want, models, plans, leftMiB, rightMiB)
		}
	}

	models := []*regression.Model{linearModel(make([]float64, 6)), {Beta: make([]float64, 5), L: 4}}
	if err := checkLinear(models); !errors.Is(err, regression.ErrDimension) {
		t.Errorf("a model over 4 features: %v, want ErrDimension", err)
	}
}

// TestLatticeScoringMatchesPlans: a full sweep on the linear route
// walks the lattice by its axes, bit for bit as Model.Predict scores
// each plan's feature row — over random and adversarial coefficients
// and table sizes (negatives, ±0, denormals, overflow, ±Inf, NaN), one
// to seven metrics, sorted, unsorted and asymmetric menus, and lattices
// of 18, 48, 2,048 and 18,432 plans, whose chunks hold several left
// rows, one, or a partial last group, for odd and even metric counts.
// A model over other features is ErrDimension.
func TestLatticeScoringMatchesPlans(t *testing.T) {
	pool := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -3.25, 5e-324, -5e-324, 2.2e-308,
		1e300, -1e300, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 1e-5, 7, 1 << 20}
	lattice := func(fed *federation.Federation, err error, menu []int) *federation.PlanLattice {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		lat, err := fed.PlanLattice(tpch.QueryQ12, menu)
		if err != nil {
			t.Fatal(err)
		}
		return lat
	}
	def, derr := federation.DefaultTopology(28)
	wide32, werr := federation.WideTopology(28, 32)
	wide96, verr := federation.WideTopology(28, 96)
	for _, tc := range []struct {
		lat    *federation.PlanLattice
		trials int
	}{
		{lattice(def, derr, []int{1, 2, 4}), 300},
		{lattice(def, derr, []int{3, 1, 16, 2, 5, 4}), 300}, // {3,1,16,2,5,4} × {3,1,2,4}
		{lattice(wide32, werr, federation.NodeRange(32)), 60},
		{lattice(wide32, werr, []int{32, 7, 1, 30, 2, 9, 15, 3, 8}), 60},
		{lattice(wide96, verr, federation.NodeRange(96)), 12},
	} {
		rng := rand.New(rand.NewSource(int64(tc.lat.Size())))
		draw := func(scale float64) float64 {
			if rng.Intn(5) == 0 {
				return pool[rng.Intn(len(pool))]
			}
			return rng.NormFloat64() * scale
		}
		for trial := 0; trial < tc.trials; trial++ {
			models := make([]*regression.Model, []int{1, 2, 3, 6, 7}[trial%5])
			for mi := range models {
				beta := make([]float64, federation.FeatureDim+1)
				for j := range beta {
					beta[j] = draw(10)
				}
				models[mi] = linearModel(beta)
			}
			leftMiB, rightMiB := math.Abs(rng.NormFloat64()*500), math.Abs(rng.NormFloat64()*50)
			if trial%7 == 0 {
				leftMiB, rightMiB = draw(500), draw(50)
			}
			requireWalkMatchesPlans(t, models, tc.lat, leftMiB, rightMiB)
		}
	}
}

// FuzzLinearScoring decodes arbitrary coefficients (six float64s per
// metric) and table sizes, then a node-choice menu (one byte a size,
// 1–96, repeats skipped); it builds the lattice the menu gives on a
// topology whose sites cap at 96 and 24 nodes, and holds the walk of
// that lattice to Model.Predict's bits over its plans, and to
// ErrDimension for a model over other features.
func FuzzLinearScoring(f *testing.F) {
	le := binary.LittleEndian
	floats := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = le.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	inf, nan, negZero := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	fed, err := federation.WideTopology(28, 96)
	if err != nil {
		f.Fatal(err)
	}
	fed.Sites["postgres-azure"].MaxNodes = 24 // Q12's right site: the axes differ
	f.Add(12.5, 3.0, floats(1, 2, 3, 4, 5, 6, -100, 0.5, 0.25, -7, 2, -1), []byte{2, 0, 1})
	f.Add(0.0, negZero, floats(negZero, inf, -inf, nan, 5e-324, 0), []byte{40, 3, 90, 23, 3, 7})
	f.Add(1e308, -1e308, floats(1e300, 1e300, 1e300, -1e300, 1e-320, inf), []byte{30, 31})
	f.Fuzz(func(t *testing.T, leftMiB, rightMiB float64, coefs, menuRaw []byte) {
		k := min(len(coefs)/(8*(federation.FeatureDim+1)), 9)
		if k == 0 {
			return
		}
		models := make([]*regression.Model, k)
		for mi := range models {
			beta := make([]float64, federation.FeatureDim+1)
			for j := range beta {
				beta[j] = math.Float64frombits(le.Uint64(coefs[8*(mi*len(beta)+j):]))
			}
			models[mi] = linearModel(beta)
		}
		var menu []int
		seen := map[int]bool{}
		for _, b := range menuRaw {
			if n := 1 + int(b)%96; !seen[n] {
				seen[n] = true
				menu = append(menu, n)
			}
		}
		if lat, err := fed.PlanLattice(tpch.QueryQ12, menu); err == nil {
			requireWalkMatchesPlans(t, models, lat, leftMiB, rightMiB)
		}
	})
}
