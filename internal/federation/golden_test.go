package federation

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"testing"

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
