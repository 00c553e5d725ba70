package stats

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// raceEnabled is set by race_test.go when the race detector is compiled
// in: sync.Pool drops entries at random there, so allocation counts mean
// nothing.
var raceEnabled bool

// rngSeeds are the seeds the stream is checked at: zero, the signs, the
// values math/rand's seeding reduces mod 2³¹−1 to each other and to 0,
// and the extreme.
var rngSeeds = []int64{0, -1, 1, 42, 1<<31 - 1, 1 << 31, math.MinInt64}

// rngNs are the n Intn and Below are checked at: 1, powers of two, small
// vocabularies, Int31n's largest n, and two past it, where math/rand
// takes Int63n's path.
var rngNs = []int{1, 2, 7, 50, 1 << 10, 1<<31 - 1, 1 << 31, 1 << 40}

// rngOp is one draw, made on an RNG and on the math/rand replica it is
// held to, returned as bits so NaN or ±0 could not compare equal by luck.
type rngOp struct {
	name string
	ours func(*RNG) []uint64
	want func(*rand.Rand) []uint64
}

func f64(x float64) []uint64 { return []uint64{math.Float64bits(x)} }

func ints(xs ...int) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = uint64(x)
	}
	return out
}

func boolBits(b bool) []uint64 {
	if b {
		return []uint64{1}
	}
	return []uint64{0}
}

// rngOps lists every RNG method against what math/rand does for it.
// Intn is called at a variable n and at constant ones, so both the
// folded bound and the computed one are checked.
func rngOps() []rngOp {
	ops := []rngOp{
		{"Float64", func(g *RNG) []uint64 { return f64(g.Float64()) },
			func(r *rand.Rand) []uint64 { return f64(r.Float64()) }},
		{"Uniform", func(g *RNG) []uint64 { return f64(g.Uniform(-999.99, 9999.99)) },
			func(r *rand.Rand) []uint64 { return f64(-999.99 + (9999.99 - -999.99)*r.Float64()) }},
		{"Bernoulli", func(g *RNG) []uint64 { return boolBits(g.Bernoulli(0.05)) },
			func(r *rand.Rand) []uint64 { return boolBits(r.Float64() < 0.05) }},
		{"Normal", func(g *RNG) []uint64 { return f64(g.Normal(3, 0.5)) },
			func(r *rand.Rand) []uint64 { return f64(3 + 0.5*r.NormFloat64()) }},
		{"LogNormal", func(g *RNG) []uint64 { return f64(g.LogNormal(0, 0.25)) },
			func(r *rand.Rand) []uint64 { return f64(math.Exp(0 + 0.25*r.NormFloat64())) }},
		{"Exponential", func(g *RNG) []uint64 { return f64(g.Exponential(2)) },
			func(r *rand.Rand) []uint64 { return f64(r.ExpFloat64() * 2) }},
		{"Perm", func(g *RNG) []uint64 { return ints(g.Perm(9)...) },
			func(r *rand.Rand) []uint64 { return ints(r.Perm(9)...) }},
		{"Intn(7)", func(g *RNG) []uint64 { return ints(g.Intn(7)) },
			func(r *rand.Rand) []uint64 { return ints(r.Intn(7)) }},
		{"Intn(50)", func(g *RNG) []uint64 { return ints(g.Intn(50)) },
			func(r *rand.Rand) []uint64 { return ints(r.Intn(50)) }},
		{"Intn(2³¹−1)", func(g *RNG) []uint64 { return ints(g.Intn(1<<31 - 1)) },
			func(r *rand.Rand) []uint64 { return ints(r.Intn(1<<31 - 1)) }},
	}
	for _, n := range rngNs {
		b := NewBound(n)
		ops = append(ops,
			rngOp{fmt.Sprintf("Intn(n=%d)", n), func(g *RNG) []uint64 { return ints(g.Intn(n)) },
				func(r *rand.Rand) []uint64 { return ints(r.Intn(n)) }},
			rngOp{fmt.Sprintf("Below(%d)", n), func(g *RNG) []uint64 { return ints(g.Below(b)) },
				func(r *rand.Rand) []uint64 { return ints(r.Intn(n)) }})
	}
	return ops
}

// TestRNGMatchesMathRand holds RNG to rand.New(rand.NewSource(seed)) draw
// for draw: every method, interleaved, over dozens of 607-draw refill
// cycles, at seeds that stress math/rand's seeding.
func TestRNGMatchesMathRand(t *testing.T) {
	ops := rngOps()
	for _, seed := range rngSeeds {
		g, r := NewRNG(seed), rand.New(rand.NewSource(seed))
		for i := range 20_000 {
			op := ops[(i*7+i/len(ops))%len(ops)]
			if got, want := op.ours(g), op.want(r); !slices.Equal(got, want) {
				t.Fatalf("seed %d, draw %d (%s): got %x, want %x", seed, i, op.name, got, want)
			}
		}
		// Both generators must still agree after the last draw.
		if got, want := g.Float64(), r.Float64(); got != want {
			t.Fatalf("seed %d: streams parted after the sequence: %v vs %v", seed, got, want)
		}
	}
}

// replay is a rand.Source that returns fixed Int63 values in order.
type replay []int64

func (r *replay) Int63() int64 { v := (*r)[0]; *r = (*r)[1:]; return v }
func (r *replay) Seed(int64)   {}

// builtRNG returns NewRNG(seed) with its register built, as its first
// draw would build it, for a test to write draws into.
func builtRNG(seed int64) *RNG {
	g := NewRNG(seed)
	g.src.refill()
	return g
}

// TestBelowRejectsAsInt31n puts the 31-bit draws around Int31n's
// rejection bound — which a random stream reaches about once in 2³¹
// draws at most n — into the generator's register, and holds Intn and
// Below to math/rand's Intn over the same values.
func TestBelowRejectsAsInt31n(t *testing.T) {
	for _, n := range []int{3, 7, 50, 3 << 28, 1<<31 - 1} {
		keep := int64(1<<31 - 1 - (1<<31)%n)
		for _, draws := range [][]int64{
			{keep, 1},
			{keep + 1, keep, 1},
			{1<<31 - 1, keep + 1, 0},
			{keep - 1, 1},
		} {
			words := make(replay, len(draws))
			for i, v := range draws {
				words[i] = v<<32 | 0x5a5a5a5a // low bits Int31 drops
			}
			want := rand.New(&words).Intn(n)
			for _, draw := range []func(*RNG) int{
				func(g *RNG) int { return g.Intn(n) },
				func(g *RNG) int { return g.Below(NewBound(n)) },
			} {
				g := builtRNG(1)
				for i, v := range draws {
					// Top bit set: Int63 must clear it.
					g.src.vec[i] = v<<32 | 0x5a5a5a5a | math.MinInt64
				}
				if got := draw(g); got != want {
					t.Errorf("n %d, draws %v: got %d, want %d", n, draws, got, want)
				}
			}
		}
	}
}

// TestFloat64RedrawsOne puts the 63-bit draws that round to 1 — about
// one in 2⁵³ — into the register: Float64 must draw again, as math/rand's
// does.
func TestFloat64RedrawsOne(t *testing.T) {
	draws := []int64{math.MaxInt64, math.MaxInt64 - 255, 1<<62 + 12345}
	words := slices.Clone(replay(draws))
	want := rand.New(&words).Float64()
	g := builtRNG(1)
	copy(g.src.vec[:], draws)
	if got := g.Float64(); got != want || len(words) != 0 || g.src.next != len(draws) {
		t.Errorf("Float64 = %v after %d draws, want %v after %d", got, g.src.next, want, len(draws)-len(words))
	}
}

// TestRNGIntnPanicsAsMathRand checks that an invalid n panics with
// math/rand's message, not with a division by zero, in Intn and Below.
func TestRNGIntnPanicsAsMathRand(t *testing.T) {
	panicOf := func(f func()) (v any) {
		defer func() { v = recover() }()
		f()
		return nil
	}
	for _, n := range []int{0, -1, math.MinInt} {
		want := panicOf(func() { rand.New(rand.NewSource(1)).Intn(n) })
		if want == nil {
			t.Fatalf("math/rand's Intn(%d) did not panic", n)
		}
		g := NewRNG(1)
		if got := panicOf(func() { g.Intn(n) }); got != want {
			t.Errorf("Intn(%d) panicked with %v, want %v", n, got, want)
		}
		b := NewBound(n)
		if got := panicOf(func() { g.Below(b) }); got != want {
			t.Errorf("Below(NewBound(%d)) panicked with %v, want %v", n, got, want)
		}
	}
}

// TestReseedMatchesNewRNG: a generator re-seeded through rand.Rand,
// before its first draw and after many, draws what NewRNG of the new
// seed draws.
func TestReseedMatchesNewRNG(t *testing.T) {
	for _, drawn := range []int{0, 1, rngLen, 5000} {
		g := NewRNG(7)
		for range drawn {
			g.Float64()
		}
		for _, seed := range rngSeeds {
			g.r.Seed(seed)
			want := NewRNG(seed)
			for i := range 2 * rngLen {
				if got, w := g.src.Uint64(), want.src.Uint64(); got != w {
					t.Fatalf("re-seeded to %d after %d draws: draw %d is %x, want %x", seed, drawn, i, got, w)
				}
			}
		}
	}
}

// allocated runs f runs times and returns the objects and bytes it
// allocated per run, rounded down as testing.AllocsPerRun rounds.
func allocated(runs int, f func(i int)) (objects, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range runs {
		f(i)
	}
	runtime.ReadMemStats(&after)
	n := uint64(runs)
	return (after.Mallocs - before.Mallocs) / n, (after.TotalAlloc - before.TotalAlloc) / n
}

// TestNewRNGAllocBudget holds a generator's memory to what it draws
// with: NewRNG allocates the RNG and its rand.Rand but no register, the
// first draw allocates the register alone (its seeding source is
// pooled), and re-seeding a generator that has drawn allocates nothing.
func TestNewRNGAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	// One P, as testing.AllocsPerRun runs, set before the pool of seeding
	// sources is filled: a change of GOMAXPROCS empties it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	NewRNG(0).Float64()
	const runs, register = 100, rngLen * 8
	gs := make([]*RNG, runs)
	objects, bytes := allocated(runs, func(i int) { gs[i] = NewRNG(int64(i)) })
	t.Logf("NewRNG: %d objects, %d B", objects, bytes)
	if objects > 2 || bytes >= register {
		t.Errorf("NewRNG allocates %d objects, %d B: want at most 2 and under the %d B register", objects, bytes, register)
	}
	objects, bytes = allocated(runs, func(i int) { gs[i].Float64() })
	t.Logf("first draw: %d objects, %d B", objects, bytes)
	if objects != 1 || bytes < register || bytes >= 2*register {
		t.Errorf("first draw allocates %d objects, %d B: want the %d B register alone", objects, bytes, register)
	}
	g := gs[0]
	objects, bytes = allocated(runs, func(i int) { g.r.Seed(int64(i)); g.Float64() })
	if objects != 0 {
		t.Errorf("re-seeding a drawn generator allocates %d objects, %d B: want none", objects, bytes)
	}
}

// FuzzRNGMatchesMathRand interleaves every RNG method, in the order the
// fuzzer picks, against a math/rand replica of the same seed.
func FuzzRNGMatchesMathRand(f *testing.F) {
	f.Add(int64(42), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(int64(math.MinInt64), []byte{255, 254, 253})
	f.Add(int64(-1), make([]byte, 1300)) // two refills of Float64 alone
	ops := rngOps()
	f.Fuzz(func(t *testing.T, seed int64, picks []byte) {
		g, r := NewRNG(seed), rand.New(rand.NewSource(seed))
		for i, p := range picks {
			op := ops[int(p)%len(ops)]
			if got, want := op.ours(g), op.want(r); !slices.Equal(got, want) {
				t.Fatalf("seed %d, draw %d (%s): got %x, want %x", seed, i, op.name, got, want)
			}
		}
	})
}

var drawSink int

// BenchmarkRNGDraw is the cost of one draw: Intn at a constant n (the
// bound folded), Below at a bound made once before the loop, Float64,
// and math/rand's Intn at the same n for reference.
func BenchmarkRNGDraw(b *testing.B) {
	b.Run("IntnConst", func(b *testing.B) {
		g, s := NewRNG(1), 0
		for range b.N {
			s += g.Intn(50)
		}
		drawSink = s
	})
	b.Run("Below", func(b *testing.B) {
		g, s := NewRNG(1), 0
		bound := NewBound(drawN)
		for range b.N {
			s += g.Below(bound)
		}
		drawSink = s
	})
	b.Run("Float64", func(b *testing.B) {
		g, s := NewRNG(1), 0.0
		for range b.N {
			s += g.Float64()
		}
		drawSink = int(s)
	})
	b.Run("MathRandIntn", func(b *testing.B) {
		r, s := rand.New(rand.NewSource(1)), 0
		for range b.N {
			s += r.Intn(50)
		}
		drawSink = s
	})
}

// drawN is a variable so that the compiler cannot fold Below's bound.
var drawN = 600
