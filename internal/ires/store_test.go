package ires

import (
	"context"
	"testing"

	"repro/internal/federation"
	"repro/internal/histstore"
	"repro/internal/tpch"
)

// storeScheduler wires a scheduler whose histories live in a histstore
// root — the durable configuration midasd runs with -data-dir.
func storeScheduler(t *testing.T, dir string, seed int64) *Scheduler {
	t.Helper()
	fed, err := federation.DefaultTopology(seed)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := federation.Calibrate(fed, federation.CalibrationSF, seed)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := federation.NewScaledExecutor(fed, cal, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	store, err := histstore.Open(dir, histstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	s, err := NewSchedulerWithConfig(fed, exec, dreamModel(t), SchedulerConfig{
		NodeChoices: []int{1, 2, 4, 8},
		Seed:        seed,
		Store:       store,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSchedulerWarmStartFromStore is the kill-and-restart contract at
// the scheduler layer: a second scheduler built over the same store
// root recovers the exact history — same length, same observations —
// and its first plan sweep estimates byte-identically to the scheduler
// that recorded the executions.
func TestSchedulerWarmStartFromStore(t *testing.T) {
	dir := t.TempDir()
	a := storeScheduler(t, dir, 7)
	if err := a.Bootstrap(tpch.QueryQ12, 24); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Submit(tpch.QueryQ12, Policy{Weights: []float64{1, 1}}); err != nil {
		t.Fatal(err)
	}
	ha := a.History(tpch.QueryQ12)
	swA, err := a.PlanSweep(context.Background(), tpch.QueryQ12)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh scheduler (same seed → same topology and
	// executor) over the same data directory.
	b := storeScheduler(t, dir, 7)
	hb, err := b.OpenHistory(tpch.QueryQ12)
	if err != nil {
		t.Fatal(err)
	}
	if hb.Len() != ha.Len() {
		t.Fatalf("recovered history has %d observations, want %d", hb.Len(), ha.Len())
	}
	for i := 0; i < ha.Len(); i++ {
		oa, ob := ha.At(i), hb.At(i)
		for j := range oa.X {
			if oa.X[j] != ob.X[j] {
				t.Fatalf("observation %d feature %d differs", i, j)
			}
		}
		for j := range oa.Costs {
			if oa.Costs[j] != ob.Costs[j] {
				t.Fatalf("observation %d cost %d differs", i, j)
			}
		}
	}
	swB, err := b.PlanSweep(context.Background(), tpch.QueryQ12)
	if err != nil {
		t.Fatal(err)
	}
	if swB.Costs.Len() != swA.Costs.Len() {
		t.Fatalf("sweep sizes differ: %d vs %d", swB.Costs.Len(), swA.Costs.Len())
	}
	for i := 0; i < swA.Costs.Len(); i++ {
		for j, ca := range swA.Costs.Row(i) {
			if cb := swB.Costs.Row(i)[j]; ca != cb {
				t.Fatalf("plan %d cost %d: restarted %v != original %v", i, j, cb, ca)
			}
		}
	}
	if len(swA.FrontIdx) != len(swB.FrontIdx) {
		t.Fatalf("pareto sizes differ: %d vs %d", len(swA.FrontIdx), len(swB.FrontIdx))
	}
}

// TestRecordPersistsWithoutCheckpoint: WAL-only durability — no
// checkpoint ever ran, yet a restart recovers every recorded execution.
func TestRecordPersistsWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	a := storeScheduler(t, dir, 3)
	x := make([]float64, federation.FeatureDim)
	for i := 0; i < 9; i++ {
		x[0] = float64(i)
		if err := a.record(tpch.QueryQ13, x, []float64{float64(i), 1}); err != nil {
			t.Fatal(err)
		}
	}
	b := storeScheduler(t, dir, 3)
	hb, err := b.OpenHistory(tpch.QueryQ13)
	if err != nil {
		t.Fatal(err)
	}
	if hb.Len() != 9 {
		t.Fatalf("recovered %d observations, want 9", hb.Len())
	}
}

// TestCheckpointWithoutStoreIsNoop keeps the paper-mode scheduler
// unchanged: no store, Checkpoint succeeds and does nothing.
func TestCheckpointWithoutStoreIsNoop(t *testing.T) {
	s := testScheduler(t, dreamModel(t), 1)
	if err := s.record(tpch.QueryQ12,
		make([]float64, federation.FeatureDim), []float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// histstore.Store must satisfy the scheduler's store seam.
var _ HistoryStore = (*histstore.Store)(nil)
