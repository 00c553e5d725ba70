package stats

import (
	"math"
	"math/bits"
	"math/rand"
	"sync"
)

// RNG draws the distributions the simulators need from math/rand's
// generator. Every stochastic component in the reproduction draws from
// an explicitly seeded RNG so experiments are reproducible run to run.
//
// The stream is math/rand's: NewRNG(seed) returns, draw for draw, what
// rand.New(rand.NewSource(seed)) does (TestRNGMatchesMathRand). Float64,
// Uniform, Bernoulli, Intn and Below read the generator's state with no
// interface call; Normal, LogNormal, Exponential and Perm go through a
// rand.Rand built over the same state.
type RNG struct {
	src source
	r   *rand.Rand
}

// NewRNG returns a deterministic generator for the given seed. It holds
// no generator state until its first draw.
func NewRNG(seed int64) *RNG {
	g := &RNG{src: source{seed: seed}}
	g.r = rand.New(&g.src)
	return g
}

// Float64 returns a uniform variate in [0, 1).
func (g *RNG) Float64() float64 {
	for {
		// math/rand's Float64: a 63-bit draw over 2⁶³, drawn again in the
		// 2⁻⁵³ case that rounds it to 1.
		if f := float64(g.src.Uint64()&^(1<<63)) * 0x1p-63; f < 1 {
			return f
		}
	}
}

// Uniform returns a uniform variate in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.Float64()
}

// Normal returns a normal variate with the given mean and standard
// deviation — the ϵ ~ N(0, σ²) error term of the paper's MLR model
// (eq. 5) and the basis of the cloud-noise processes.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// LogNormal returns exp(N(mu, sigma²)); used for heavy-tailed latency
// spikes in the engine simulators.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(g.Normal(mu, sigma))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Intn inlines, so at a constant n the compiler folds the bound and the
// draw does no division; a loop drawing at a variable n is faster with
// one NewBound before it and Below in it.
func (g *RNG) Intn(n int) int {
	// NewBound(n) written out: calling it would take Intn past the
	// inliner's budget.
	return g.Below(Bound{n: n, q: ^uint64(0) / max(uint64(n), 1), rem: (1 << 31) % max(uint64(n), 1)})
}

// Bound is the arithmetic of Intn(n) done once for n: math/rand's Int31n
// rejection bound, and a multiplier that takes the remainder by n with
// no division (Lemire, Kaser & Kurz, "Faster Remainder by Direct
// Computation", 2019).
type Bound struct {
	n   int
	q   uint64 // ⌊(2⁶⁴−1)/n⌋; q+1 = ⌈2⁶⁴/n⌉ mod 2⁶⁴ is the multiplier
	rem uint64 // 2³¹ mod n: Int31n draws again above 2³¹−1−rem
}

// NewBound returns the bound of draws in [0, n). Below panics for it,
// as Intn does, if n <= 0.
func NewBound(n int) Bound {
	d := max(uint64(n), 1) // no division by zero: Below takes n <= 0 to math/rand
	return Bound{n: n, q: ^uint64(0) / d, rem: (1 << 31) % d}
}

// Below returns a uniform integer in [0, n) for b = NewBound(n): what
// Intn(n) returns, drawing what it draws.
func (g *RNG) Below(b Bound) int {
	if b.n <= 0 || b.n > math.MaxInt32 {
		return g.r.Intn(b.n) // math/rand's panic, or its Int63n path
	}
	n, m, keep := uint64(b.n), b.q+1, 1<<31-1-b.rem
	for {
		// math/rand's Int31: the top 31 of the 63 bits Int63 keeps. For
		// v < 2³² and n < 2³¹, v mod n = ⌊(m·v mod 2⁶⁴)·n / 2⁶⁴⌋.
		v := (g.src.Uint64() >> 32) &^ (1 << 31)
		if v <= keep {
			r, _ := bits.Mul64(m*v, n)
			return int(r)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool { return g.Float64() < p }

// Exponential returns an exponential variate with the given mean.
func (g *RNG) Exponential(mean float64) float64 {
	return g.r.ExpFloat64() * mean
}

// math/rand's generator is additive lagged Fibonacci: its k-th output is
// y[k] = y[k−607] + y[k−273] mod 2⁶⁴.
const (
	rngLen = 607
	rngTap = 273
)

// source is math/rand's generator with its register kept in output
// order: vec holds the outputs of the current 607-draw cycle and next
// indexes the one to return next, so a draw is a load and an index bump.
// The register is built from seed on the first draw, so a generator
// that never draws (an idle tenant's) holds 40 bytes, not 4.9 KB. It is
// a slice, not an array pointer, so that the draw's bounds check is its
// only check: next == len(vec) both ends a cycle and finds no register.
// It is a rand.Source64 so that a rand.Rand can draw from the same state.
type source struct {
	next int
	vec  []int64 // nil until the first draw, then rngLen long
	seed int64
}

// seeders are math/rand sources kept for seeding registers: Seed resets
// all of a source's state, so one serves every seed in turn.
var seeders = sync.Pool{New: func() any { return rand.NewSource(0) }}

// Seed restarts the stream at seed. The first cycle is the first 607
// outputs of rand.NewSource(seed), so the stream is math/rand's by
// construction; a source that has drawn rebuilds its register now, in
// place, and one that has not waits for its first draw.
func (s *source) Seed(seed int64) {
	s.seed, s.next = seed, len(s.vec)
	if s.vec != nil {
		s.fill()
	}
}

// fill makes the register the first cycle of seed's stream.
func (s *source) fill() {
	src := seeders.Get().(rand.Source64)
	src.Seed(s.seed)
	for i := range s.vec {
		s.vec[i] = int64(src.Uint64())
	}
	seeders.Put(src)
	s.next = 0
}

// Uint64 returns the next 64-bit output.
func (s *source) Uint64() (x uint64) {
	if s.next == len(s.vec) {
		s.refill()
	}
	x = uint64(s.vec[s.next])
	s.next++
	return
}

// Int63 returns the next output with its top bit cleared.
func (s *source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// refill builds the register on the first draw, and on every later
// cycle overwrites it with the next one: y[k+607] = y[k] + y[k+334],
// where y[k+334] is still in the old cycle for k < 273 and already in
// the new one, at k−273, after. It is kept out of line so that Uint64,
// which calls it once a cycle, inlines.
//
//go:noinline
func (s *source) refill() {
	if s.vec == nil {
		s.vec = make([]int64, rngLen)
		s.fill()
		return
	}
	v := (*[rngLen]int64)(s.vec)
	for k := 0; k < rngTap; k++ {
		v[k] += v[k+rngLen-rngTap]
	}
	for k := rngTap; k < rngLen; k++ {
		v[k] += v[k-rngTap]
	}
	s.next = 0
}
