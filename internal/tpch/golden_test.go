package tpch

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestGenerateGolden pins the generated population byte for byte: a
// SHA-256 over the CSV export of every table at seed 42, SF 0.004 (the
// servers' calibration database). A faster generator must draw the same
// random numbers in the same order and format every value the same way.
func TestGenerateGolden(t *testing.T) {
	db := genSmall(t, 0.004, 42)
	h := sha256.New()
	for _, table := range CSVTables {
		if err := db.WriteCSV(table, h); err != nil {
			t.Fatalf("%s: %v", table, err)
		}
	}
	const want = "f86b862396b8a40967bca5f2d31f1fc0b336cb6f3ff46582ed6d6eae28a3dbcb"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("Generate(0.004, seed 42) digest = %s, want %s", got, want)
	}
}
