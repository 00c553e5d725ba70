package federation

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cloud"
	"repro/internal/engine"
	"repro/internal/tpch"
)

// calibrationDigest is a SHA-256 over every statistic a Calibration
// holds: each query's pieces in tpch.AllQueries order, floats by their
// bits, then the table sizes in sorted table order.
func calibrationDigest(cal *Calibration) string {
	h := sha256.New()
	u64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	stats := func(s engine.Stats) {
		u64(uint64(s.RowsScanned))
		u64(uint64(s.RowsProcessed))
		u64(uint64(s.RowsOutput))
		u64(math.Float64bits(s.ShuffleBytes))
		u64(uint64(s.Stages))
	}
	u64(math.Float64bits(cal.SF))
	for _, q := range tpch.AllQueries {
		pc := cal.PerSF[q]
		fmt.Fprintf(h, "%v", q)
		stats(pc.leftStats)
		stats(pc.rightStats)
		stats(pc.finalStats)
		u64(math.Float64bits(pc.leftPrepBytes))
		u64(math.Float64bits(pc.rightPrepBytes))
	}
	tables := make([]string, 0, len(cal.tblByte))
	for table := range cal.tblByte {
		tables = append(tables, table)
	}
	sort.Strings(tables)
	for _, table := range tables {
		h.Write([]byte(table))
		u64(math.Float64bits(cal.tblByte[table]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCalibrationGolden pins Calibrate bit for bit over three seeds and
// two scale factors: the operator statistics every ScaledExecutor
// replays, and so every served cost, come from here.
func TestCalibrationGolden(t *testing.T) {
	want := map[string]string{
		"seed=1/sf=0.004":  "2f224e878c5bcea1900399e99d0ac1fbb249869393db0cdf44f7b5609b553721",
		"seed=1/sf=0.01":   "c23d23bbd781f068dcd5408fab28e8f1284f99a02515e21436347841f1c5cd27",
		"seed=42/sf=0.004": "77ea4a64381ea2bca2a6474e2c606ed46c965f7a7cf2e4ecc607dc8d67678205",
		"seed=42/sf=0.01":  "8c6bb136a3c7974f4861f20ddd1aa35d75d9f27eba11a5372b6ea5a4f8d87766",
		"seed=99/sf=0.004": "983199ea4f9216e7948a6cb739bb11e3466d31e6ae7464fdb280ff25bf258f47",
		"seed=99/sf=0.01":  "3691e4cd7cb2b93af42076f3ec1c64f701e239e7614ff2667a87559e7d796360",
	}
	for _, seed := range []int64{1, 42, 99} {
		for _, sf := range []float64{0.004, 0.01} {
			cal, err := Calibrate(defaultFed(t), sf, seed)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("seed=%d/sf=%v", seed, sf)
			if got := calibrationDigest(cal); got != want[key] {
				t.Errorf("%s: digest %s, want %s", key, got, want[key])
			}
		}
	}
}

// outcomeDigest is a SHA-256 over a sequence of outcomes: every field
// of each, floats by their bits, the answer (if any) by its schema and
// rows.
func outcomeDigest(outs []*Outcome) string {
	h := sha256.New()
	for _, o := range outs {
		for _, v := range []float64{
			o.TimeS, o.MoneyUSD,
			o.LeftTimeS, o.RightTimeS, o.ShipTimeS, o.FinalTimeS,
			o.ShippedBytes, o.Env.LoadLeft, o.Env.LoadRight,
		} {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		if o.Result != nil {
			fmt.Fprintf(h, "%q%v", o.Result.Schema, o.Result.Rows)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestOutcomeStreamGolden pins, bit for bit, the outcomes a seeded
// federation measures: two full executions, then scaled ones, over
// random plans of every studied query, on the default, three-cloud and
// wide topologies, with no chaos and under every chaos profile. Each
// execution ticks both sites' loads and draws the noise, so the stream
// pins the order of every draw as well as the cost arithmetic.
func TestOutcomeStreamGolden(t *testing.T) {
	want := map[string]string{
		"default/autoscale":        "aa5a6fc880f3289c14b294fa3c56d646cf5811499dc9facc51983e134d51363b",
		"default/mixed":            "441b0aee1112d9d3aaad06b7b736edf748ef4edf5fbc7c96cad25cc3ec342f7b",
		"default/none":             "665112a9fb95e5f90ba197fd4df065b82c1ce187e94c7c00c9e08cc9bdb83e15",
		"default/outages":          "bff3b094c2464738e217f88b2c5923c5ad62946ac0e97fe57c3287b798db01f8",
		"default/price-spikes":     "d72a2f3e3890c9efef17d8ccf1528863065c7d6d7a5b170aa5375111a7f2fbbf",
		"default/stragglers":       "ff12cfac861c1b158c6ec3f62a37ed6b81528ab78e794ab7390b1fe60cfbb31b",
		"three-cloud/autoscale":    "e180cb32060784a296267b25c6bd8fe15f26392ccd7d3730849f080d5f295762",
		"three-cloud/mixed":        "884f5de9c521c42a534dd88482d65ba0ac4c947409cbbe5f5efb3375c747fa99",
		"three-cloud/none":         "f824298ef7d2fffec3625a64775cf4e5d2f53c920cf305a3067ae72dbe1cdef3",
		"three-cloud/outages":      "766bd621beb38185bed1756e717c5a9abf8256fdceca64a101aed2ed108c5556",
		"three-cloud/price-spikes": "954fac8b8696b8ead44291512e4cf85a1eaccae6ff12fe8788ae5c4f6afb25a5",
		"three-cloud/stragglers":   "7186f130abb0d6b0b9f9c6cae6fbfc6f32901b44f64717f19c990166f93347b8",
		"wide96/autoscale":         "deecbecaadf2ae562bfaad376bf63e33079337566a6d3ed80bdcf7ddee916dc2",
		"wide96/mixed":             "65ddaaa31078b76e4f75e6e224725ff1e46c1d2c40c346fa5141ca053c7ff179",
		"wide96/none":              "2a1fcf8c720d2cbfed60015cbe1b9a3c73165d8c43d2131fc486fc07f2110be8",
		"wide96/outages":           "45502461b8978e1cc02623fd0e1cd6206004443cc94ac27de5d72f7fc3847919",
		"wide96/price-spikes":      "3225b2e42a1b7fcc21c6af550aa86f71f38cc9a0d83c01654ada5e70b437cd42",
		"wide96/stragglers":        "f723252744f6152a26447cfe7d88b3d4c3c4a7dc57756786f23dd07553b7472b",
	}
	db := smallDB(t)
	builds := []struct {
		name  string
		build func(seed int64) (*Federation, error)
	}{
		{"default", DefaultTopology},
		{"three-cloud", ThreeCloudTopology},
		{"wide96", func(seed int64) (*Federation, error) { return WideTopology(seed, 96) }},
	}
	for bi, b := range builds {
		seed := int64(40 + bi)
		fed, err := b.build(seed)
		if err != nil {
			t.Fatal(err)
		}
		cal, err := Calibrate(fed, CalibrationSF, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, profile := range cloud.ChaosProfileNames() {
			prof, err := cloud.ParseChaosProfile(profile)
			if err != nil {
				t.Fatal(err)
			}
			fed, err := b.build(seed)
			if err != nil {
				t.Fatal(err)
			}
			chaos := cloud.NewChaos(prof, seed)
			for _, site := range fed.Sites {
				sc := chaos.Site(site.Name)
				site.Load.AttachChaos(sc)
				site.Provider.AttachChaos(sc)
			}
			scaled, err := NewScaledExecutor(fed, cal, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			full := NewFullExecutor(fed, db)
			rng := rand.New(rand.NewSource(seed))
			var outs []*Outcome
			for i := 0; i < 200; i++ {
				q := tpch.AllQueries[rng.Intn(len(tpch.AllQueries))]
				lat, err := fed.PlanLattice(q, NodeRange(96))
				if err != nil {
					t.Fatal(err)
				}
				var ex Executor = scaled
				if i < 2 {
					ex = full
				}
				out, err := ex.Execute(lat.At(rng.Intn(lat.Size())))
				if err != nil {
					t.Fatal(err)
				}
				outs = append(outs, out)
			}
			key := b.name + "/" + profile
			if fc := chaos.Counts(); prof.Enabled() && fc == (cloud.FaultCounts{}) {
				t.Errorf("%s: no fault window opened, so the stream pins no chaos", key)
			}
			if got := outcomeDigest(outs); got != want[key] {
				t.Errorf("%s: digest %s, want %s", key, got, want[key])
			}
		}
	}
}
