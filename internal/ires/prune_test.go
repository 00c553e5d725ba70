package ires

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/metrics"
	"repro/internal/moo"
	"repro/internal/regression"
	"repro/internal/tpch"
)

// buildWideStack is buildStack on a WideTopology federation: both sites
// accept clusters up to maxNodes VMs and the dense NodeRange menu is
// used, so the QEP lattice has 2×maxNodes² plans — the knob that
// reaches the paper's Example 3.1 regime.
func buildWideStack(t *testing.T, seed int64, maxNodes int, cfg SchedulerConfig) *Scheduler {
	t.Helper()
	return wideStack(t, seed, maxNodes, stackModel(t, 0), cfg)
}

// TestSchedulerRejectsBadNodeChoices: assembly fails fast on malformed
// menus instead of surfacing a lattice error on the first request.
func TestSchedulerRejectsBadNodeChoices(t *testing.T) {
	fed, err := federation.DefaultTopology(1)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := federation.Calibrate(fed, federation.CalibrationSF, 1)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := federation.NewScaledExecutor(fed, cal, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	model, err := NewDREAMModel(core.Config{MMax: MMax})
	if err != nil {
		t.Fatal(err)
	}
	for _, choices := range [][]int{{0}, {-1, 2}, {2, 2}} {
		if _, err := NewSchedulerWithConfig(fed, exec, model, SchedulerConfig{NodeChoices: choices, Seed: 1}); err == nil {
			t.Errorf("NewSchedulerWithConfig accepted node choices %v", choices)
		}
	}
}

// linearFront scores left × right on both sides with walkLinearCosts,
// as a walk that scores every plan does, and, when rowsOrdered holds,
// fails unless rowEnds' candidates are in ascending lattice order, each
// with its plan's bits in that matrix, and their front, mapped to the
// lattice, is moo.ParetoFront of the whole matrix, index for index. It
// returns whether the rows were ordered, how many rows the reduction
// examined (the whole matrix when they were not), and the row count.
func linearFront(t testing.TB, models []*regression.Model, left, right []int, leftMiB, rightMiB float64) (ordered bool, candidates, rows int) {
	t.Helper()
	k := len(models)
	side := len(left) * len(right) * k
	flat := make([]float64, 2*side)
	walkLinearCosts(flat, models, left, right, 0, side, leftMiB, rightMiB)
	costs, err := moo.FlatCostMatrix(flat, k)
	if err != nil {
		t.Fatal(err)
	}
	if !rowsOrdered(models, left, right, leftMiB, rightMiB) {
		return false, costs.Len(), 2 * len(left)
	}
	want, err := moo.ParetoFront(costs)
	if err != nil {
		t.Fatal(err)
	}
	cand, at := rowEnds(nil, nil, models, left, right, leftMiB, rightMiB)
	for c, i := range at {
		if c > 0 && i <= at[c-1] {
			t.Fatalf("%d×%d rows, β %v: candidates out of lattice order: %v", len(left), len(right), betas(models), at)
		}
		if !equalBits(cand[2*c:2*c+2], costs.Row(i)) {
			t.Fatalf("%d×%d rows, β %v: candidate %d is %v, plan %d scores %v",
				len(left), len(right), betas(models), c, cand[2*c:2*c+2], i, costs.Row(i))
		}
	}
	reduced, err := moo.FlatCostMatrix(cand, 2)
	if err != nil {
		t.Fatal(err)
	}
	front := moo.ParetoFrontInto(nil, reduced)
	for j, c := range front {
		front[j] = at[c]
	}
	if !slices.Equal(front, want) {
		t.Fatalf("%d×%d rows, β %v, sizes %v/%v: front %v, want %v",
			len(left), len(right), betas(models), leftMiB, rightMiB, front, want)
	}
	return true, len(at), 2 * len(left)
}

// betas is the models' coefficients, for a failure message.
func betas(models []*regression.Model) [][]float64 {
	out := make([][]float64, len(models))
	for i, m := range models {
		out[i] = m.Beta
	}
	return out
}

// TestRowsOrdered: the front is read from row ends only when both
// metrics' β₄ agree in sign — a zero of either sign agrees with any —
// every term is finite and far from overflow, and the right axis
// strictly ascends.
func TestRowsOrdered(t *testing.T) {
	negZero := math.Copysign(0, -1)
	pair := func(b4a, b4b float64) []*regression.Model {
		return []*regression.Model{
			linearModel([]float64{5, 0.1, 0.2, 0.3, b4a, 1}),
			linearModel([]float64{1, 0.01, 0.02, -0.4, b4b, 0.5}),
		}
	}
	big := linearModel([]float64{1, 0, 0, 0, 3e307, 0})
	left, right := []int{1, 2, 4}, []int{1, 2, 4, 8}
	for _, tc := range []struct {
		name   string
		models []*regression.Model
		right  []int
		want   bool
	}{
		{"both rise", pair(1, 2), right, true},
		{"both fall", pair(-1, -0.5), right, true},
		{"signs disagree", pair(1, -1), right, false},
		{"−0 beside a rise", pair(negZero, 1), right, true},
		{"−0 beside a fall", pair(-1, negZero), right, true},
		{"+0 beside a fall", pair(0, -1), right, true},
		{"both zero", pair(negZero, 0), right, true},
		{"NaN β₄", pair(math.NaN(), 1), right, false},
		{"infinite β₄", pair(math.Inf(1), 1), right, false},
		{"infinite β₀", []*regression.Model{linearModel([]float64{math.Inf(-1), 0, 0, 0, 1, 0}), pair(1, 1)[1]}, right, false},
		{"near overflow", []*regression.Model{big, big}, right, false},
		{"within range", []*regression.Model{big, big}, []int{1, 2}, true},
		{"one right size", pair(1, 2), []int{7}, true},
		{"unsorted axis", pair(1, 2), []int{1, 4, 2}, false},
		{"repeated size", pair(1, 2), []int{1, 2, 2, 4}, false},
		{"descending axis", pair(1, 2), []int{8, 4, 2}, false},
		{"empty axis", pair(1, 2), nil, false},
		{"one metric", pair(1, 2)[:1], right, false},
		{"three metrics", append(pair(1, 2), pair(1, 2)[0]), right, false},
	} {
		if got := rowsOrdered(tc.models, left, tc.right, 10, 100); got != tc.want {
			t.Errorf("%s: rowsOrdered = %v, want %v", tc.name, got, tc.want)
		}
	}
	if rowsOrdered(pair(1, 2), left, right, math.NaN(), 100) {
		t.Error("a NaN table size: rows ordered")
	}
}

// TestWalkDecidesOnTheWholeAxis: a walk decides from its fit, over the
// whole left axis, whether it scores only the rows' ends. On the
// 2,048-plan lattice, a node coefficient whose overflow bound holds over
// the first four left sizes but not over all 32 makes the walk score
// every plan.
func TestWalkDecidesOnTheWholeAxis(t *testing.T) {
	fed, err := federation.WideTopology(28, 32)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := fed.PlanLattice(tpch.QueryQ12, federation.NodeRange(32))
	if err != nil {
		t.Fatal(err)
	}
	left, right := lat.Axes()
	walk := func(b3 float64) (moo.CostMatrix, []int) {
		t.Helper()
		models := []*regression.Model{
			linearModel([]float64{5, 0.1, 0.2, b3, 1, 1}),
			linearModel([]float64{1, 0.01, 0.02, -0.4, 2, 0.5}),
		}
		if b3 > 1 && (!rowsOrdered(models, left[:4], right, 10, 100) || rowsOrdered(models, left, right, 10, 100)) {
			t.Fatal("β₃ does not split the first four sizes' overflow check from the whole axis'")
		}
		b := new(sweepBuf)
		b.ps = planSweeper{lat: lat, linear: fixedLinear{models: models}, leftMiB: 10, rightMiB: 100, buf: b}
		costs, at, err := b.ps.walk(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		return costs, at
	}
	if costs, at := walk(0.3); costs.Len() != 64 || len(at) != 64 {
		t.Errorf("ordered fit: %d rows scored, want the 64 row ends", costs.Len())
	}
	if costs, at := walk(math.MaxFloat64 / 50); at != nil || costs.Len() != lat.Size() {
		t.Errorf("overflow past the first four sizes: %d rows scored, want all %d", costs.Len(), lat.Size())
	}
}

// TestLinearFrontMatchesParetoFront: the front of the row ends a walk
// scores is moo.ParetoFront of the whole matrix walkLinearCosts scores,
// index for index. First over the cases only a scorer of row ends can
// get wrong — a run of ties at the high end, rows of equal values, ±0,
// rows one plan long — whose matrices are Predict's bits too, then over
// random and adversarial coefficients (±0, signs that disagree, values
// near overflow, ±Inf, NaN), rows clamped to zero (ties), right axes
// sorted, unsorted, repeating or one size long, and one to three
// metrics; with ordered rows and no ties it examines one row end per
// row.
func TestLinearFrontMatchesParetoFront(t *testing.T) {
	negZero := math.Copysign(0, -1)
	pair := func(a, b []float64) []*regression.Model {
		return []*regression.Model{linearModel(a), linearModel(b)}
	}
	left, right := []int{1, 2}, []int{1, 2, 3, 5, 8, 13, 21}
	for _, tc := range []struct {
		name       string
		models     []*regression.Model
		right      []int
		candidates int
	}{
		// Both costs fall along each row and clamp at zero from nr = 5:
		// every row's best end is its last plan and the three before it.
		{"tie run at the high end", pair([]float64{10, 0, 0, 0, -2, 0}, []float64{20, 0, 0, 0, -4, 0}), right, 4 * 4},
		{"β₄ = 0", pair([]float64{3, 0, 0, 1, 0, 0}, []float64{1, 0, 0, 2, 0, 0.5}), right, 4 * 7},
		{"clamped at 0", pair([]float64{-1e9, 0, 0, 1, 1, 0}, []float64{-1e9, 0, 0, 1, 2, 0}), right, 4 * 7},
		// Every plan costs −0 in the first metric; in the second, +0
		// (clamped from −1) with the join at the left and −0 without it.
		{"±0", pair([]float64{negZero, negZero, negZero, negZero, negZero, negZero},
			[]float64{negZero, negZero, negZero, negZero, negZero, -1}), right, 4 * 7},
		{"rows of one plan", pair([]float64{5, 0.1, 0.2, 0.3, 1, 1}, []float64{1, 0.01, 0.02, -0.4, 2, 0.5}), []int{7}, 4},
	} {
		requireKernelMatchesPredict(t, tc.models, left, tc.right, 10, 100)
		ordered, candidates, _ := linearFront(t, tc.models, left, tc.right, 10, 100)
		if !ordered || candidates != tc.candidates {
			t.Errorf("%s: ordered %v, %d candidates, want ordered and %d", tc.name, ordered, candidates, tc.candidates)
		}
	}

	pool := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -3.25, 5e-324, 1e300, -1e300, 1e306,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	rng := rand.New(rand.NewSource(47))
	draw := func(scale float64) float64 {
		if rng.Intn(6) == 0 {
			return pool[rng.Intn(len(pool))]
		}
		return rng.NormFloat64() * scale
	}
	axis := func(n int) []int {
		a := make([]int, n)
		for i := range a {
			a[i] = 1 + rng.Intn(96)
		}
		return a
	}
	var ordered, tied, fallback int
	for trial := 0; trial < 3000; trial++ {
		k := []int{2, 2, 2, 1, 3}[trial%5]
		models := make([]*regression.Model, k)
		for mi := range models {
			beta := make([]float64, federation.FeatureDim+1)
			for j := range beta {
				beta[j] = draw(10)
			}
			switch rng.Intn(6) {
			case 0: // every plan clamped to zero
				beta[0] = -1e9
			case 1: // flat along the right axis
				beta[federation.FeatureDim-1] = 0
			}
			models[mi] = linearModel(beta)
		}
		left, right := axis(rng.Intn(6)), axis(1+rng.Intn(8))
		switch trial % 4 {
		case 0, 1:
			slices.Sort(right)
			right = slices.Compact(right)
		case 2:
			right = right[:1]
		}
		got, candidates, rows := linearFront(t, models, left, right, math.Abs(draw(500)), math.Abs(draw(50)))
		switch {
		case !got:
			fallback++
		case candidates > rows:
			tied++
		default:
			ordered++
			if candidates != rows {
				t.Fatalf("trial %d: %d candidates from %d ordered rows", trial, candidates, rows)
			}
		}
	}
	if ordered < 100 || tied < 100 || fallback < 100 {
		t.Errorf("generator missed a regime: %d ordered, %d ordered with ties, %d fallbacks", ordered, tied, fallback)
	}
}

// FuzzLinearFront decodes arbitrary coefficients (six float64s per
// metric), table sizes and two axes (one byte a size, 1–96; the right
// axis taken sorted when its first byte is even, as it comes
// otherwise), and holds the front read from the row ends of the matrix
// the walk scores, wherever rowsOrdered allows it, to moo.ParetoFront.
func FuzzLinearFront(f *testing.F) {
	le := binary.LittleEndian
	floats := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = le.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	negZero := math.Copysign(0, -1)
	f.Add(12.5, 3.0, floats(1, 2, 3, 4, 5, 6, -100, 0.5, 0.25, -7, 2, -1), []byte{2, 0, 1}, []byte{0, 3, 9, 4})
	f.Add(0.0, 1.0, floats(-1e9, 0, 0, 1, negZero, 1, 3, 0, 0, 0, 0, 2), []byte{5, 5}, []byte{2, 1, 2, 3})
	f.Add(1.0, 1.0, floats(1e300, 0, 0, 0, 1e306, 0, 1, 0, 0, 0, 1, 0), []byte{7}, []byte{0, 95})
	f.Add(1.0, 1.0, floats(1, 1, 1, 1, 1, 1, 1, 1, 1, 1, -1, 1), []byte{3, 1}, []byte{1, 9, 2, 2})
	f.Fuzz(func(t *testing.T, leftMiB, rightMiB float64, coefs, leftRaw, rightRaw []byte) {
		k := min(len(coefs)/(8*(federation.FeatureDim+1)), 3)
		if k == 0 || len(leftRaw) > 32 || len(rightRaw) > 32 {
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
		axis := func(raw []byte) []int {
			a := make([]int, len(raw))
			for i, b := range raw {
				a[i] = 1 + int(b)%96
			}
			return a
		}
		left, right := axis(leftRaw), axis(rightRaw)
		if len(rightRaw) > 0 && rightRaw[0]%2 == 0 {
			slices.Sort(right)
		}
		linearFront(t, models, left, right, leftMiB, rightMiB)
	})
}

// TestPlanSweepReadsRowEnds: on the served shape — DREAM over a sized
// executor, a 2,048-plan lattice — a sweep whose fits agree in β₄'s
// sign scores and reduces only the 64 row ends, one that does not all
// 2,048 rows, which the candidate counter shows; either way the front
// is moo.ParetoFront of every plan's cost vector, walkLinearCosts'
// whole matrix (AllCosts), and Costs holds that matrix exactly when the
// sweep scored every plan. The first rounds after the bootstrap
// disagree, the later ones agree.
func TestPlanSweepReadsRowEnds(t *testing.T) {
	reg := metrics.NewRegistry()
	s := buildWideStack(t, 42, 32, SchedulerConfig{Seed: 42, Metrics: reg, MetricsFederation: "t"})
	if err := s.Bootstrap(tpch.QueryQ12, 24); err != nil {
		t.Fatal(err)
	}
	want, ordered := 0, 0
	for round := 0; round < 8; round++ {
		sw, err := s.PlanSweep(t.Context(), tpch.QueryQ12)
		if err != nil {
			t.Fatal(err)
		}
		if front, _ := moo.ParetoFront(sw.AllCosts()); !slices.Equal(sw.FrontIdx, front) {
			t.Fatalf("round %d: front %v, want %v", round, sw.FrontIdx, front)
		}
		ends := sw.Costs.Len() == 0
		if !ends && sw.Costs.Len() != sw.Lattice.Size() {
			t.Fatalf("round %d: Costs holds %d of %d plans", round, sw.Costs.Len(), sw.Lattice.Size())
		}
		if want += sw.Lattice.Size(); ends {
			want, ordered = want-sw.Lattice.Size()+64, ordered+1
		}
		if _, err := s.DecideFromSweep(sw, Policy{Weights: []float64{1, 1}}); err != nil {
			t.Fatal(err)
		}
		s.ReleaseSweep(sw)
	}
	if ordered == 0 || ordered == 8 {
		t.Errorf("%d of 8 sweeps read row ends, want some but not all", ordered)
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := metrics.ParseText(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.Values[`midas_pareto_candidates_total{federation="t",query="Q12"}`]; got != float64(want) {
		t.Errorf("8 sweeps examined %v rows, want %d", got, want)
	}
}
