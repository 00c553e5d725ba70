package federation

import "testing"

// BenchmarkCalibrate is one tenant build's dominant cost: generate the
// CalibrationSF database every midasd tenant calibrates on, convert its
// tables and run the four studied queries once.
// `make bench-boot` runs it at -cpu 1,2; `make profile-boot` profiles it.
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
