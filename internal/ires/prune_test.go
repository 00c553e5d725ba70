package ires

import (
	"testing"

	"repro/internal/core"
	"repro/internal/federation"
)

// buildWideStack is buildStack on a WideTopology federation: both sites
// accept clusters up to maxNodes VMs and the dense NodeRange menu is
// used, so the QEP lattice has 2×maxNodes² plans — the knob that
// reaches the paper's Example 3.1 regime.
func buildWideStack(t *testing.T, seed int64, maxNodes int, cfg SchedulerConfig) *Scheduler {
	t.Helper()
	return wideStack(t, seed, maxNodes, stackModel(t, 0), cfg)
}

// TestSchedulerRejectsBadNodeChoices: assembly fails fast on malformed
// menus instead of surfacing a lattice error on the first request.
func TestSchedulerRejectsBadNodeChoices(t *testing.T) {
	fed, err := federation.DefaultTopology(1)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := federation.Calibrate(fed, federation.CalibrationSF, 1)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := federation.NewScaledExecutor(fed, cal, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	model, err := NewDREAMModel(core.Config{MMax: MMax})
	if err != nil {
		t.Fatal(err)
	}
	for _, choices := range [][]int{{0}, {-1, 2}, {2, 2}} {
		if _, err := NewSchedulerWithConfig(fed, exec, model, SchedulerConfig{NodeChoices: choices, Seed: 1}); err == nil {
			t.Errorf("NewSchedulerWithConfig accepted node choices %v", choices)
		}
	}
}
