package federation

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/cloud"
	"repro/internal/engine"
	"repro/internal/tpch"
)

// TestFullExecutorConcurrentExecute runs the four studied queries at
// once on a fresh executor, so they race to build its shared tables
// (Scheduler.DecideFromSweep calls Execute from many goroutines). Each
// answer must equal the one a sequential run gives.
func TestFullExecutorConcurrentExecute(t *testing.T) {
	fed := defaultFed(t)
	db := smallDB(t)
	want := make(map[tpch.QueryID][]engine.Row)
	seq := NewFullExecutor(fed, db)
	for _, q := range tpch.AllQueries {
		out, err := seq.Execute(Plan{Query: q, NodesLeft: 1, NodesRight: 1})
		if err != nil {
			t.Fatal(err)
		}
		want[q] = out.Result.Rows
	}

	ex := NewFullExecutor(fed, db)
	var wg sync.WaitGroup
	for _, q := range tpch.AllQueries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := ex.Execute(Plan{Query: q, NodesLeft: 1, NodesRight: 1})
			if err != nil {
				t.Error(err)
				return
			}
			if got := out.Result.Rows; !reflect.DeepEqual(got, want[q]) {
				t.Errorf("%v: %v concurrently, %v sequentially", q, got, want[q])
			}
		}()
	}
	wg.Wait()
}

// TestExecutorsNeverProduceNonFinite: both executors measure only finite
// costs and features — what History.Append accepts — over random plans
// of every studied query, on the default, three-cloud and wide
// topologies, at random scale factors and under every chaos profile, so
// refusing non-finite observations refuses nothing a run records.
func TestExecutorsNeverProduceNonFinite(t *testing.T) {
	db := smallDB(t)
	rng := rand.New(rand.NewSource(46))
	builds := []func(seed int64) (*Federation, error){
		DefaultTopology,
		ThreeCloudTopology,
		func(seed int64) (*Federation, error) { return WideTopology(seed, 96) },
	}
	for _, profile := range cloud.ChaosProfileNames() {
		prof, err := cloud.ParseChaosProfile(profile)
		if err != nil {
			t.Fatal(err)
		}
		for bi, build := range builds {
			seed := rng.Int63n(1000)
			fed, err := build(seed)
			if err != nil {
				t.Fatal(err)
			}
			chaos := cloud.NewChaos(prof, seed)
			for _, site := range fed.Sites {
				sc := chaos.Site(site.Name)
				site.Load.AttachChaos(sc)
				site.Provider.AttachChaos(sc)
			}
			cal, err := Calibrate(fed, CalibrationSF, seed)
			if err != nil {
				t.Fatal(err)
			}
			scaled, err := NewScaledExecutor(fed, cal, math.Exp(rng.Float64()*12-6)) // SF e⁻⁶..e⁶
			if err != nil {
				t.Fatal(err)
			}
			full := NewFullExecutor(fed, db)
			for _, q := range tpch.AllQueries {
				lat, err := fed.PlanLattice(q, NodeRange(96))
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 40; i++ {
					p := lat.At(rng.Intn(lat.Size()))
					var ex Executor = scaled
					if i < 4 {
						ex = full // a full execution runs the query: a few suffice
					}
					out, err := ex.Execute(p)
					if err != nil {
						t.Fatal(err)
					}
					x, err := ex.Features(p)
					if err != nil {
						t.Fatal(err)
					}
					env := out.Env
					vals := slices.Concat(x, out.BreakdownCosts(), []float64{out.ShippedBytes,
						env.LoadLeft, env.LoadRight, env.PriceLeft, env.PriceRight,
						env.NoiseLeft, env.NoiseRight, env.NoiseShip, env.NoiseFinal})
					for j, v := range vals {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							t.Fatalf("%s chaos, topology %d, seed %d, %T, %+v: value %d of %v is not finite", profile, bi, seed, ex, p, j, vals)
						}
					}
				}
			}
		}
	}
}

// fuzzCal is the calibration FuzzCostUnder replays: Calibrate reads only
// the generated database, never the federation's state, so one serves
// every topology.
var fuzzCal = sync.OnceValues(func() (*Calibration, error) {
	fed, err := DefaultTopology(1)
	if err != nil {
		return nil, err
	}
	return Calibrate(fed, CalibrationSF, 1)
})

// FuzzCostUnder checks the split of an execution into draw and
// costUnder: over a seeded topology, chaos profile and scale factor,
// every execution equals the oracle's cost under the environment it
// drew, bit for bit, and a plan over capacity fails before drawing —
// the federation it failed on then measures what an untouched twin
// measures.
func FuzzCostUnder(f *testing.F) {
	f.Add(int64(1), 0.0, uint16(0), uint8(0), uint8(0))
	f.Add(int64(7), -2.5, uint16(911), uint8(1), uint8(3))
	f.Add(int64(42), 3.0, uint16(17000), uint8(2), uint8(5))
	f.Add(int64(-9), 1.5, uint16(4242), uint8(1), uint8(2))
	cal, err := fuzzCal()
	if err != nil {
		f.Fatal(err)
	}
	profiles := cloud.ChaosProfileNames()
	builds := []func(seed int64) (*Federation, error){
		DefaultTopology,
		ThreeCloudTopology,
		func(seed int64) (*Federation, error) { return WideTopology(seed, 96) },
	}
	f.Fuzz(func(t *testing.T, seed int64, logSF float64, plan uint16, topology, profile uint8) {
		if math.IsNaN(logSF) || math.Abs(logSF) > 6 {
			t.Skip("scale factor outside e⁻⁶..e⁶")
		}
		prof, err := cloud.ParseChaosProfile(profiles[int(profile)%len(profiles)])
		if err != nil {
			t.Fatal(err)
		}
		build := builds[int(topology)%len(builds)]
		var feds [2]*Federation
		var execs [2]*ScaledExecutor
		for i := range feds {
			if feds[i], err = build(seed); err != nil {
				t.Fatal(err)
			}
			chaos := cloud.NewChaos(prof, seed)
			for _, site := range feds[i].Sites {
				sc := chaos.Site(site.Name)
				site.Load.AttachChaos(sc)
				site.Provider.AttachChaos(sc)
			}
			if execs[i], err = NewScaledExecutor(feds[i], cal, math.Exp(logSF)); err != nil {
				t.Fatal(err)
			}
		}

		// Over capacity at either site: refused by both entry points,
		// with nothing drawn (checked against the twin below).
		leftTable, _ := tpch.QueryQ12.Tables()
		left, err := feds[0].SiteOf(leftTable)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []Plan{
			{Query: tpch.QueryQ12, NodesLeft: left.MaxNodes + 1, NodesRight: 1},
			{Query: tpch.QueryQ12, NodesLeft: 1, NodesRight: 0},
		} {
			if _, err := execs[0].Execute(p); err == nil {
				t.Fatalf("over-capacity plan %v executed", p)
			}
			if _, err := execs[0].CostUnder(p, Env{}); err == nil {
				t.Fatalf("over-capacity plan %v priced", p)
			}
		}

		same := func(a, b *Outcome) bool {
			return outcomeDigest([]*Outcome{a}) == outcomeDigest([]*Outcome{b}) && a.Env == b.Env
		}
		for i := 0; i < 24; i++ {
			q := tpch.AllQueries[(int(plan)+i)%len(tpch.AllQueries)]
			lat, err := feds[0].PlanLattice(q, NodeRange(96))
			if err != nil {
				t.Fatal(err)
			}
			p := lat.At((int(plan) + 977*i) % lat.Size())
			out, err := execs[0].Execute(p)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := execs[1].Execute(p)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := execs[0].CostUnder(p, out.Env)
			if err != nil {
				t.Fatal(err)
			}
			if !same(oracle, out) {
				t.Fatalf("execution %d, %v: CostUnder under the drawn env gives\n%+v\nExecute gave\n%+v", i, p, *oracle, *out)
			}
			if !same(twin, out) {
				t.Fatalf("execution %d, %v: the federation a refused plan ran on measures\n%+v\nits twin\n%+v", i, p, *out, *twin)
			}
		}
	})
}
