package moo

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// Problem defines a continuous multi-objective minimization problem
// over a box-bounded decision space (eq. 13: minimize F(x) over Ω ⊆ Rᴸ).
type Problem interface {
	// Bounds returns the per-dimension [lo, hi] box of the decision space.
	Bounds() (lo, hi []float64)
	// Evaluate maps a decision vector to its objective vector.
	Evaluate(x []float64) []float64
}

// NSGAIIConfig parameterizes the genetic algorithm.
type NSGAIIConfig struct {
	// PopSize is the population size; defaults to 100 (even).
	PopSize int
	// Generations defaults to 100.
	Generations int
	// CrossoverProb defaults to 0.9 (SBX).
	CrossoverProb float64
	// MutationProb defaults to 1/L (polynomial mutation).
	MutationProb float64
	// EtaCrossover and EtaMutation are the SBX / polynomial-mutation
	// distribution indices; default 15 and 20.
	EtaCrossover float64
	EtaMutation  float64
	// Seed makes runs reproducible.
	Seed int64
}

// Individual is one evaluated member of the final population.
type Individual struct {
	X     []float64
	Costs []float64
	Rank  int // front index, 0 = Pareto front of the final population
}

// Result is the output of an NSGA-II run.
type Result struct {
	// Front is the first non-dominated front of the final population.
	Front []Individual
	// Population is the full final population (diagnostics).
	Population []Individual
	// Evaluations counts objective evaluations performed.
	Evaluations int
}

// NSGAII runs the Non-dominated Sorting Genetic Algorithm II (Deb et
// al. 2002) — the optimizer the paper plugs into IReS's Multi-Objective
// Optimizer to produce the Pareto QEP set.
func NSGAII(p Problem, cfg NSGAIIConfig) (*Result, error) {
	lo, hi, err := validateBounds(p)
	if err != nil {
		return nil, err
	}
	dim := len(lo)
	if cfg.PopSize <= 0 {
		cfg.PopSize = 100
	}
	if cfg.PopSize%2 == 1 {
		cfg.PopSize++
	}
	if cfg.Generations <= 0 {
		cfg.Generations = 100
	}
	if cfg.CrossoverProb <= 0 {
		cfg.CrossoverProb = 0.9
	}
	if cfg.MutationProb <= 0 {
		cfg.MutationProb = 1 / float64(dim)
	}
	if cfg.EtaCrossover <= 0 {
		cfg.EtaCrossover = 15
	}
	if cfg.EtaMutation <= 0 {
		cfg.EtaMutation = 20
	}
	// pop holds cfg.PopSize individuals in every generation.
	rng, pick := stats.NewRNG(cfg.Seed), stats.NewBound(cfg.PopSize)

	evals := 0
	pop := evalBatch(p, randomPopulation(cfg.PopSize, lo, hi, rng))
	evals += len(pop)

	for gen := 0; gen < cfg.Generations; gen++ {
		ranks, crowd, err := rankAndCrowd(pop)
		if err != nil {
			return nil, err
		}
		childXs := make([][]float64, 0, cfg.PopSize)
		for len(childXs) < cfg.PopSize {
			p1 := tournament(pop, ranks, crowd, rng, pick)
			p2 := tournament(pop, ranks, crowd, rng, pick)
			c1, c2 := sbxCrossover(p1.X, p2.X, lo, hi, cfg, rng)
			polynomialMutate(c1, lo, hi, cfg, rng)
			polynomialMutate(c2, lo, hi, cfg, rng)
			childXs = append(childXs, c1, c2)
		}
		evals += len(childXs)
		combined := append(pop, evalBatch(p, childXs)...)
		pop, err = environmentalSelection(combined, cfg.PopSize)
		if err != nil {
			return nil, err
		}
	}

	// Final ranking for the result.
	costs := costsOf(pop)
	fronts, err := NonDominatedSort(costs)
	if err != nil {
		return nil, err
	}
	res := &Result{Population: pop, Evaluations: evals}
	for rank, front := range fronts {
		for _, i := range front {
			pop[i].Rank = rank
		}
	}
	for _, i := range fronts[0] {
		res.Front = append(res.Front, pop[i])
	}
	return res, nil
}

// randomPopulation draws popSize decision vectors uniformly from the
// bounds box, consuming the RNG in the same order as the historical
// generate-then-evaluate loop.
func randomPopulation(popSize int, lo, hi []float64, rng *stats.RNG) [][]float64 {
	xs := make([][]float64, popSize)
	for i := range xs {
		x := make([]float64, len(lo))
		for j := range x {
			x[j] = rng.Uniform(lo[j], hi[j])
		}
		xs[i] = x
	}
	return xs
}

// evalBatch evaluates a batch of decision vectors into Individuals,
// preserving input order.
func evalBatch(p Problem, xs [][]float64) []Individual {
	batch := make([]Individual, len(xs))
	for i, x := range xs {
		batch[i] = Individual{X: x, Costs: p.Evaluate(x)}
	}
	return batch
}

func costsOf(pop []Individual) [][]float64 {
	costs := make([][]float64, len(pop))
	for i := range pop {
		costs[i] = pop[i].Costs
	}
	return costs
}

// rankAndCrowd computes front ranks and crowding distances for the
// population.
func rankAndCrowd(pop []Individual) (ranks []int, crowd []float64, err error) {
	costs := costsOf(pop)
	fronts, err := NonDominatedSort(costs)
	if err != nil {
		return nil, nil, err
	}
	ranks = make([]int, len(pop))
	crowd = make([]float64, len(pop))
	for rank, front := range fronts {
		for _, i := range front {
			ranks[i] = rank
		}
		assignCrowding(costs, front, crowd)
	}
	return ranks, crowd, nil
}

// assignCrowding writes NSGA-II crowding distances for the members of
// one front into crowd.
func assignCrowding(costs [][]float64, front []int, crowd []float64) {
	if len(front) == 0 {
		return
	}
	nObj := len(costs[front[0]])
	for _, i := range front {
		crowd[i] = 0
	}
	idx := make([]int, len(front))
	for m := 0; m < nObj; m++ {
		copy(idx, front)
		sort.Slice(idx, func(a, b int) bool { return costs[idx[a]][m] < costs[idx[b]][m] })
		lo, hi := costs[idx[0]][m], costs[idx[len(idx)-1]][m]
		crowd[idx[0]] = math.Inf(1)
		crowd[idx[len(idx)-1]] = math.Inf(1)
		if hi == lo {
			continue
		}
		for k := 1; k < len(idx)-1; k++ {
			crowd[idx[k]] += (costs[idx[k+1]][m] - costs[idx[k-1]][m]) / (hi - lo)
		}
	}
}

// tournament is the binary crowded-comparison tournament: lower rank
// wins; ties break on larger crowding distance. pick is
// stats.NewBound(len(pop)).
func tournament(pop []Individual, ranks []int, crowd []float64, rng *stats.RNG, pick stats.Bound) Individual {
	a, b := rng.Below(pick), rng.Below(pick)
	switch {
	case ranks[a] < ranks[b]:
		return pop[a]
	case ranks[b] < ranks[a]:
		return pop[b]
	case crowd[a] > crowd[b]:
		return pop[a]
	default:
		return pop[b]
	}
}

// environmentalSelection keeps the best n individuals of the combined
// parent+offspring population by (rank, crowding).
func environmentalSelection(combined []Individual, n int) ([]Individual, error) {
	costs := costsOf(combined)
	fronts, err := NonDominatedSort(costs)
	if err != nil {
		return nil, err
	}
	out := make([]Individual, 0, n)
	crowd := make([]float64, len(combined))
	for _, front := range fronts {
		if len(out)+len(front) <= n {
			for _, i := range front {
				out = append(out, combined[i])
			}
			continue
		}
		// Partial front: keep the most spread-out members.
		assignCrowding(costs, front, crowd)
		sorted := make([]int, len(front))
		copy(sorted, front)
		sort.Slice(sorted, func(a, b int) bool { return crowd[sorted[a]] > crowd[sorted[b]] })
		for _, i := range sorted[:n-len(out)] {
			out = append(out, combined[i])
		}
		break
	}
	return out, nil
}

// sbxCrossover performs simulated binary crossover, returning two
// children clamped to the bounds.
func sbxCrossover(p1, p2, lo, hi []float64, cfg NSGAIIConfig, rng *stats.RNG) ([]float64, []float64) {
	dim := len(p1)
	c1 := make([]float64, dim)
	c2 := make([]float64, dim)
	copy(c1, p1)
	copy(c2, p2)
	if rng.Float64() > cfg.CrossoverProb {
		return c1, c2
	}
	for j := 0; j < dim; j++ {
		if rng.Float64() > 0.5 || p1[j] == p2[j] {
			continue
		}
		u := rng.Float64()
		var beta float64
		if u <= 0.5 {
			beta = math.Pow(2*u, 1/(cfg.EtaCrossover+1))
		} else {
			beta = math.Pow(1/(2*(1-u)), 1/(cfg.EtaCrossover+1))
		}
		v1 := 0.5 * ((1+beta)*p1[j] + (1-beta)*p2[j])
		v2 := 0.5 * ((1-beta)*p1[j] + (1+beta)*p2[j])
		c1[j] = clamp(v1, lo[j], hi[j])
		c2[j] = clamp(v2, lo[j], hi[j])
	}
	return c1, c2
}

// polynomialMutate applies polynomial mutation in place.
func polynomialMutate(x, lo, hi []float64, cfg NSGAIIConfig, rng *stats.RNG) {
	for j := range x {
		if rng.Float64() > cfg.MutationProb {
			continue
		}
		span := hi[j] - lo[j]
		if span == 0 {
			continue
		}
		u := rng.Float64()
		var delta float64
		if u < 0.5 {
			delta = math.Pow(2*u, 1/(cfg.EtaMutation+1)) - 1
		} else {
			delta = 1 - math.Pow(2*(1-u), 1/(cfg.EtaMutation+1))
		}
		x[j] = clamp(x[j]+delta*span, lo[j], hi[j])
	}
}

// validateBounds checks a problem's decision-space box.
func validateBounds(p Problem) (lo, hi []float64, err error) {
	lo, hi = p.Bounds()
	if len(lo) != len(hi) || len(lo) == 0 {
		return nil, nil, fmt.Errorf("moo: invalid bounds: |lo|=%d |hi|=%d", len(lo), len(hi))
	}
	for i := range lo {
		if lo[i] > hi[i] {
			return nil, nil, fmt.Errorf("moo: bounds inverted at dimension %d: [%v, %v]", i, lo[i], hi[i])
		}
	}
	return lo, hi, nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
