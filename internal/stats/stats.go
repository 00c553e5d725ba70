// Package stats provides the statistical primitives shared across the
// reproduction: goodness-of-fit measures (SSE, SST, R²), the error
// metrics the paper evaluates with (Mean Relative Error, eq. 15), online
// moment accumulation, and deterministic random-variate helpers used by
// the cloud-variance and workload simulators.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by aggregate functions invoked on no data.
var ErrEmpty = errors.New("stats: empty input")

// ErrLength is returned when paired slices have different lengths.
var ErrLength = errors.New("stats: mismatched input lengths")

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

// Variance returns the population variance of xs.
func Variance(xs []float64) (float64, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)), nil
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// SSE returns the sum of squared errors Σ(actual−fitted)² (paper eq. 11).
func SSE(actual, fitted []float64) (float64, error) {
	if len(actual) != len(fitted) {
		return 0, ErrLength
	}
	if len(actual) == 0 {
		return 0, ErrEmpty
	}
	var s float64
	for i := range actual {
		d := actual[i] - fitted[i]
		s += d * d
	}
	return s, nil
}

// SST returns the total sum of squares Σ(actual−mean)².
func SST(actual []float64) (float64, error) {
	m, err := Mean(actual)
	if err != nil {
		return 0, err
	}
	var s float64
	for _, a := range actual {
		d := a - m
		s += d * d
	}
	return s, nil
}

// RSquared returns the coefficient of determination R² = 1 − SSE/SST
// (paper eq. 14). When the responses are constant (SST == 0), R² is 1
// if the fit is exact and 0 otherwise, matching the convention that a
// constant response carries no variance to explain.
func RSquared(actual, fitted []float64) (float64, error) {
	sse, err := SSE(actual, fitted)
	if err != nil {
		return 0, err
	}
	sst, err := SST(actual)
	if err != nil {
		return 0, err
	}
	if sst == 0 {
		if sse == 0 {
			return 1, nil
		}
		return 0, nil
	}
	return 1 - sse/sst, nil
}

// MRE returns the Mean Relative Error (1/M)·Σ|ĉᵢ−cᵢ|/cᵢ the paper uses
// to compare DREAM against the IReS models (eq. 15). Observations with
// cᵢ == 0 are skipped to avoid division by zero; if every observation
// is skipped the result is ErrEmpty.
func MRE(actual, predicted []float64) (float64, error) {
	if len(actual) != len(predicted) {
		return 0, ErrLength
	}
	var s float64
	n := 0
	for i := range actual {
		if actual[i] == 0 {
			continue
		}
		s += math.Abs(predicted[i]-actual[i]) / math.Abs(actual[i])
		n++
	}
	if n == 0 {
		return 0, ErrEmpty
	}
	return s / float64(n), nil
}

// Quantiles returns several q-quantiles of xs with a single sort — the
// shape a latency report wants (p50/p90/p99 from one sample).
func Quantiles(xs []float64, qs ...float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	for _, q := range qs {
		if q < 0 || q > 1 {
			return nil, errors.New("stats: quantile out of [0,1]")
		}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantileSorted(sorted, q)
	}
	return out, nil
}

// quantileSorted interpolates the q-quantile of an already-sorted
// sample.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Online accumulates count, mean and variance incrementally using
// Welford's algorithm. The zero value is ready to use.
type Online struct {
	n    int
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// N returns the number of observations.
func (o *Online) N() int { return o.n }

// Mean returns the running mean (0 when empty).
func (o *Online) Mean() float64 { return o.mean }

// SumSquaredDeviations returns Welford's running Σ(x−mean)² — the SST
// of the observations folded in so far, available without a second
// pass. (Variance() is this divided by n.)
func (o *Online) SumSquaredDeviations() float64 { return o.m2 }

// Reset returns the accumulator to its zero state so scratch
// accumulators can be recycled without reallocation.
func (o *Online) Reset() { *o = Online{} }

// Variance returns the running population variance (0 when n < 2).
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n)
}

// StdDev returns the running population standard deviation.
func (o *Online) StdDev() float64 { return math.Sqrt(o.Variance()) }
