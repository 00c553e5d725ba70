package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between the two nearest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= n {
		hi = n - 1
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// median sorts a copy of xs and returns its middle.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// round is one timed round: its metrics by name and the share of CPU
// time the hypervisor stole while it ran (-1 = unknown).
type round struct {
	Values  map[string]float64 `json:"values"`
	Samples int                `json:"samples"`
	Steal   float64            `json:"steal_share"`
}

// calmSteal is the steal share up to which a round counts as calm.
const calmSteal = 0.05

func (r round) calm() bool { return r.Steal >= 0 && r.Steal <= calmSteal }

// calmMedian is the median of one metric over the calm rounds. The box
// spends most of its time at one speed and leaves it in both directions
// — a turbo burst, a busy neighbour — so the middle round is the reading
// that repeats; rounds the hypervisor stole from only ever read slow and
// are left out. When fewer than half the rounds were calm all of them
// count and disturbed is true.
func calmMedian(rounds []round, metric string) (value float64, disturbed bool) {
	var calm, all []float64
	for _, r := range rounds {
		all = append(all, r.Values[metric])
		if r.calm() {
			calm = append(calm, r.Values[metric])
		}
	}
	if 2*len(calm) < len(all) {
		return median(all), true
	}
	return median(calm), false
}
