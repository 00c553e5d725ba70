package experiments

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ires"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// raceEnabled is set by race_test.go when the race detector is
// compiled in.
var raceEnabled bool

var errStub = errors.New("stub prediction failed")

// flakyModel fails its first fails predictions, every one when fails
// is negative, and predicts a unit cost otherwise.
type flakyModel struct{ calls, fails int }

func (m *flakyModel) Name() string { return "flaky" }

func (m *flakyModel) EstimateSnapshot(_ *core.Snapshot, _ []float64) ([]float64, error) {
	m.calls++
	if m.fails < 0 || m.calls <= m.fails {
		return nil, errStub
	}
	return []float64{1, 1}, nil
}

// TestRunCellsRefusesAFailedModel: a model that fails one prediction,
// or every one, has no score. The campaign fails and names the cell,
// the model and the first error, rather than average the model's MRE
// over what it did predict, or print an MRE of 0, the best in the
// table.
func TestRunCellsRefusesAFailedModel(t *testing.T) {
	for _, fails := range []int{1, -1} {
		dream, err := ires.NewDREAMModel(core.Config{MMax: ires.MMax})
		if err != nil {
			t.Fatal(err)
		}
		_, err = runCells([]cell{{
			cfg: workload.EvalConfig{Query: tpch.QueryQ12, SF: 0.1, HistorySize: 20, TestQueries: 5, Seed: 1},
			rep: 1,
			models: []workload.ModelSpec{
				{Name: "DREAM", Model: dream},
				{Name: "flaky", Model: &flakyModel{fails: fails}},
			},
		}})
		if !errors.Is(err, errStub) || !strings.Contains(err.Error(), "Q12 rep 1: model flaky") {
			t.Errorf("fails %d: err = %v, want the stub's error for Q12 rep 1, model flaky", fails, err)
		}
	}
}
