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
					vals := slices.Concat(x, out.BreakdownCosts(), []float64{out.ShippedBytes, out.LoadLeft, out.LoadRight})
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
