package federation

import "testing"

// BenchmarkCalibrate is one tenant build's dominant cost: generate the
// CalibrationSF database every midasd tenant calibrates on, convert its
// tables and run the four studied queries once.
// `make layers` records it at -cpu 1,2; `make profile-boot` profiles it.
func BenchmarkCalibrate(b *testing.B) {
	fed, err := DefaultTopology(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Calibrate(fed, CalibrationSF, 42); err != nil {
			b.Fatal(err)
		}
	}
}

// calibrateAllocBudget holds one calibration's allocations (755 at
// seed 42): the generated tables, a few hundred shared strings, the
// typed columns and the engine's operators. A per-row string or pointer
// back in the generator fails it: the customer names alone are 600
// rows at CalibrationSF, and the generator that gave every name,
// comment, part attribute and lineitem code its own string made 11,776.
// So does a string per group in Aggregate: Q13 groups ~600 customers,
// and building each one's key made 1,367.
const calibrateAllocBudget = 800

// TestCalibrateAllocBudget holds Calibrate at the served calibration
// scale to calibrateAllocBudget allocations.
func TestCalibrateAllocBudget(t *testing.T) {
	fed, err := DefaultTopology(1)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Calibrate(fed, CalibrationSF, 42); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v allocations per Calibrate", allocs)
	if allocs > calibrateAllocBudget {
		t.Errorf("Calibrate allocates %v objects, over the budget of %d", allocs, calibrateAllocBudget)
	}
}
