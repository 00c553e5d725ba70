package moo

import (
	"math"
	"testing"
)

// zdt1 is the standard ZDT1 benchmark: convex Pareto front
// f2 = 1 − sqrt(f1) at g = 1 (all decision vars beyond the first are 0).
type zdt1 struct{ dim int }

func (z zdt1) Bounds() (lo, hi []float64) {
	lo = make([]float64, z.dim)
	hi = make([]float64, z.dim)
	for i := range hi {
		hi[i] = 1
	}
	return lo, hi
}

func (z zdt1) Evaluate(x []float64) []float64 {
	f1 := x[0]
	g := 1.0
	for _, v := range x[1:] {
		g += 9 * v / float64(z.dim-1)
	}
	h := 1 - math.Sqrt(f1/g)
	return []float64{f1, g * h}
}

// schaffer is Schaffer's single-variable problem: f1 = x², f2 = (x−2)²;
// the Pareto set is x ∈ [0, 2].
type schaffer struct{}

func (schaffer) Bounds() (lo, hi []float64) { return []float64{-10}, []float64{10} }
func (schaffer) Evaluate(x []float64) []float64 {
	return []float64{x[0] * x[0], (x[0] - 2) * (x[0] - 2)}
}

func TestNSGAIIOnSchaffer(t *testing.T) {
	res, err := NSGAII(schaffer{}, NSGAIIConfig{PopSize: 60, Generations: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	for _, ind := range res.Front {
		if ind.X[0] < -0.1 || ind.X[0] > 2.1 {
			t.Errorf("front member x = %v outside Pareto set [0,2]", ind.X[0])
		}
		if ind.Rank != 0 {
			t.Errorf("front member has rank %d", ind.Rank)
		}
	}
	if res.Evaluations == 0 {
		t.Error("no evaluations counted")
	}
}

func TestNSGAIIOnZDT1(t *testing.T) {
	res, err := NSGAII(zdt1{dim: 8}, NSGAIIConfig{PopSize: 80, Generations: 120, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Front quality: mean distance to the true front f2 = 1 − sqrt(f1)
	// should be small.
	var dist float64
	for _, ind := range res.Front {
		want := 1 - math.Sqrt(ind.Costs[0])
		dist += math.Abs(ind.Costs[1] - want)
	}
	dist /= float64(len(res.Front))
	if dist > 0.15 {
		t.Errorf("mean distance to true ZDT1 front = %v, want < 0.15", dist)
	}
	// Spread: the front should cover a reasonable range of f1.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, ind := range res.Front {
		if ind.Costs[0] < lo {
			lo = ind.Costs[0]
		}
		if ind.Costs[0] > hi {
			hi = ind.Costs[0]
		}
	}
	if hi-lo < 0.5 {
		t.Errorf("front f1 spread = %v, want ≥ 0.5", hi-lo)
	}
}

func TestNSGAIIFrontIsNonDominated(t *testing.T) {
	res, err := NSGAII(zdt1{dim: 5}, NSGAIIConfig{PopSize: 40, Generations: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range res.Front {
		for j, b := range res.Front {
			if i == j {
				continue
			}
			dom, err := ParetoDominates(a.Costs, b.Costs)
			if err != nil {
				t.Fatal(err)
			}
			if dom {
				t.Fatalf("front member %d dominates member %d", i, j)
			}
		}
	}
}

func TestNSGAIIDeterministic(t *testing.T) {
	run := func() []Individual {
		res, err := NSGAII(schaffer{}, NSGAIIConfig{PopSize: 20, Generations: 10, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return res.Front
	}
	f1, f2 := run(), run()
	if len(f1) != len(f2) {
		t.Fatalf("same-seed runs differ in front size: %d vs %d", len(f1), len(f2))
	}
	for i := range f1 {
		if f1[i].Costs[0] != f2[i].Costs[0] || f1[i].Costs[1] != f2[i].Costs[1] {
			t.Fatal("same-seed runs produced different fronts")
		}
	}
}

func TestNSGAIIBadBounds(t *testing.T) {
	if _, err := NSGAII(badBounds{}, NSGAIIConfig{PopSize: 4, Generations: 1}); err == nil {
		t.Error("inverted bounds accepted")
	}
}

type badBounds struct{}

func (badBounds) Bounds() (lo, hi []float64)     { return []float64{1}, []float64{0} }
func (badBounds) Evaluate(x []float64) []float64 { return []float64{x[0]} }

// countingProblem wraps zdt1 with an evaluation counter.
type countingProblem struct {
	zdt1
	n int
}

func (c *countingProblem) Evaluate(x []float64) []float64 {
	c.n++
	return c.zdt1.Evaluate(x)
}

// TestNSGAIIEvaluationCount: Result.Evaluations is the number of
// Evaluate calls the problem saw — one per individual per batch.
func TestNSGAIIEvaluationCount(t *testing.T) {
	p := &countingProblem{zdt1: zdt1{dim: 6}}
	res, err := NSGAII(p, NSGAIIConfig{PopSize: 16, Generations: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := 16 * (5 + 1); res.Evaluations != want || p.n != want {
		t.Fatalf("reported %d evaluations, problem saw %d, want %d", res.Evaluations, p.n, want)
	}
}

func TestAssignCrowdingBoundariesInfinite(t *testing.T) {
	costs := [][]float64{{0, 3}, {1, 2}, {2, 1}, {3, 0}}
	crowd := make([]float64, 4)
	assignCrowding(costs, []int{0, 1, 2, 3}, crowd)
	if !math.IsInf(crowd[0], 1) || !math.IsInf(crowd[3], 1) {
		t.Errorf("boundary crowding not infinite: %v", crowd)
	}
	if crowd[1] <= 0 || crowd[2] <= 0 {
		t.Errorf("interior crowding not positive: %v", crowd)
	}
}
