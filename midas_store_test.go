package midas_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/histstore"
)

// TestDurableHistoryStore drives the durable history store: open
// a store, record through a history it owns, recover in a fresh store.
func TestDurableHistoryStore(t *testing.T) {
	dir := t.TempDir()
	store, err := histstore.Open(dir, histstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := store.OpenHistory("demo", 1, []string{"time_s"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := h.Append(core.Observation{X: []float64{float64(i)}, Costs: []float64{2 * float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 11; i <= 13; i++ { // appends after a durability point extend the same WAL
		if err := h.Append(core.Observation{X: []float64{float64(i)}, Costs: []float64{2 * float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	again, err := histstore.Open(dir, histstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	h2, err := again.OpenHistory("demo", 1, []string{"time_s"})
	if err != nil {
		t.Fatal(err)
	}
	if h2.Len() != 13 {
		t.Fatalf("recovered %d observations, want 13", h2.Len())
	}
	if got := h2.At(12).Costs[0]; got != 26 {
		t.Fatalf("last recovered cost = %v, want 26", got)
	}
}
