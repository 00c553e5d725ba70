package experiments

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/federation"
	"repro/internal/ires"
	"repro/internal/moo"
	"repro/internal/tpch"
)

// testStack is newStack over DefaultTopology(seed).
func testStack(t *testing.T, seed int64, choices []int, cacheSize int, q tpch.QueryID, runs int) *stack {
	t.Helper()
	st, err := newStack(federation.DefaultTopology, seed, choices, cacheSize, q, runs)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestOptimizeGAAndSelect: the GA needs a history, returns lattice plans
// that policies select among without re-running it, and an empty set
// has nothing to select.
func TestOptimizeGAAndSelect(t *testing.T) {
	cfg := moo.NSGAIIConfig{PopSize: 30, Generations: 15, Seed: 1}
	if _, _, err := optimizeGA(testStack(t, 5, defaultMenu, 0, tpch.QueryQ14, 0), cfg); !errors.Is(err, ires.ErrNoHistory) {
		t.Errorf("GA without history: got %v, want ErrNoHistory", err)
	}
	st := testStack(t, 5, defaultMenu, 0, tpch.QueryQ14, 40)
	front, evaluations, err := optimizeGA(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(front.Plans) == 0 || evaluations == 0 {
		t.Fatalf("GA front of %d plans from %d evaluations", len(front.Plans), evaluations)
	}
	for _, p := range front.Plans {
		if !slices.Contains(st.lat.Plans(), p) {
			t.Errorf("plan %v in the front is not in the lattice", p)
		}
	}
	for _, w := range [][]float64{{1, 0.001}, {0.001, 1}} {
		if _, err := front.Select(ires.Policy{Weights: w}); err != nil {
			t.Errorf("weights %v: %v", w, err)
		}
	}
	if _, err := (&ires.Sweep{}).Select(ires.Policy{}); !errors.Is(err, moo.ErrNoPlans) {
		t.Errorf("empty GA front select: got %v, want ErrNoPlans", err)
	}
}

// TestGAAmortizesAcrossPolicyChanges: the paper's Figure 3 argument.
// With the GA, K policy changes need one optimization and K selections
// in its front; with the weighted sum, K sweeps of the whole lattice.
func TestGAAmortizesAcrossPolicyChanges(t *testing.T) {
	st := testStack(t, 7, defaultMenu, 0, tpch.QueryQ12, 40)
	front, gaEvals, err := optimizeGA(st, moo.NSGAIIConfig{PopSize: 30, Generations: 15, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	const K = 5
	wsmEvals := 0
	for k := 0; k < K; k++ {
		w := float64(k+1) / K
		pol := ires.Policy{Weights: []float64{w, 1 - w + 0.01}}
		sw, err := st.sched.PlanSweep(context.Background(), st.query)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := moo.ArgminWeightedSum(moo.NormalizeCosts(nil, sw.Costs), pol.Weights); err != nil {
			t.Fatal(err)
		}
		wsmEvals += len(sw.Plans)
		st.sched.ReleaseSweep(sw)
		if _, err := front.Select(pol); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("GA evals (once): %d; WSM evals (%d policies): %d", gaEvals, K, wsmEvals)
	if gaEvals <= 0 || gaEvals > st.lat.Size() || wsmEvals != K*st.lat.Size() {
		t.Errorf("GA paid %d evaluations, WSM %d, on a %d-plan lattice: want at most the lattice once, and %d times",
			gaEvals, wsmEvals, st.lat.Size(), K)
	}
}

// TestGADecodesLatticePlans: a node menu with entries above a site's
// capacity gives a lattice that skips them, and every plan the GA scores
// or returns is still a lattice plan — none is clamped to the capacity.
func TestGADecodesLatticePlans(t *testing.T) {
	st := testStack(t, 11, []int{1, 2, 3, 5}, 0, tpch.QueryQ12, 50)
	for seed := int64(1); seed <= 20; seed++ {
		front, evaluations, err := optimizeGA(st, moo.NSGAIIConfig{PopSize: 40, Generations: 25, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if evaluations > st.lat.Size() {
			t.Errorf("seed %d: %d model evaluations on a %d-plan lattice", seed, evaluations, st.lat.Size())
		}
		for _, p := range front.Plans {
			if !slices.Contains(st.lat.Plans(), p) {
				t.Errorf("seed %d: plan %v in the front is not in the lattice", seed, p)
			}
		}
	}
}

// TestCachedOptimizeGAMatchesUncached: NSGA-II over the plan problem
// returns the same Pareto set whether each distinct plan's estimate
// comes from the cached fit or a fresh window search.
func TestCachedOptimizeGAMatchesUncached(t *testing.T) {
	cfg := moo.NSGAIIConfig{PopSize: 24, Generations: 10, Seed: 3}
	var got [2]string
	for i, cacheSize := range []int{-1, 0} {
		front, evaluations, err := optimizeGA(testStack(t, 11, defaultMenu, cacheSize, tpch.QueryQ12, 25), cfg)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = fmt.Sprintf("%+v %v %d", front.Plans, front.Costs, evaluations)
	}
	if got[0] != got[1] {
		t.Fatalf("GA results diverge:\nuncached: %s\ncached:   %s", got[0], got[1])
	}
}

// TestGASelectStrategies exercises the selection strategies on a GA
// Pareto set and checks they make characteristically different picks.
func TestGASelectStrategies(t *testing.T) {
	st := testStack(t, 42, defaultMenu, 0, tpch.QueryQ14, 40)
	front, _, err := optimizeGA(st, moo.NSGAIIConfig{PopSize: 40, Generations: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(front.Plans) < 2 {
		t.Skip("front too small to differentiate strategies")
	}
	// Knee needs no policy input; its validity is selecting at all.
	if _, err := front.Select(ires.Policy{Strategy: ires.KneeSelection}); err != nil {
		t.Fatal(err)
	}
	timeFirst, err := front.Select(ires.Policy{Strategy: ires.LexicographicSelection, LexOrder: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	moneyFirst, err := front.Select(ires.Policy{Strategy: ires.LexicographicSelection, LexOrder: []int{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	// Lexicographic time-first must pick a plan at least as fast (by
	// the model's own costs) as money-first, and money-first one at
	// least as cheap.
	tf, mf := front.Costs.Row(timeFirst), front.Costs.Row(moneyFirst)
	if tf[0] > mf[0]*1.05 {
		t.Errorf("time-first pick (%v s) slower than money-first (%v s)", tf[0], mf[0])
	}
	if mf[1] > tf[1]*1.05 {
		t.Errorf("money-first pick ($%v) dearer than time-first ($%v)", mf[1], tf[1])
	}
}
