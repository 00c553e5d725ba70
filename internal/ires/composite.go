package ires

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/federation"
)

// CompositeDREAMModel is the operator-level variant of the DREAM
// Modelling module. IReS builds one cost model *per operator*; the
// monolithic DREAMModel instead regresses end-to-end plan time, which
// forces a linear model through the inherently non-linear composition
//
//	time = max(leftPrep, rightPrep) + ship + final.
//
// CompositeDREAMModel runs DREAM per piece (each piece is much closer
// to linear in the features) and reassembles the plan's time with the
// true composition rule. Money is predicted directly. It requires a
// history recorded with federation.BreakdownMetrics.
type CompositeDREAMModel struct {
	Est *core.Estimator
}

// NewCompositeDREAMModel builds the operator-level Modelling module.
func NewCompositeDREAMModel(cfg core.Config) (*CompositeDREAMModel, error) {
	est, err := core.NewEstimator(cfg)
	if err != nil {
		return nil, err
	}
	return &CompositeDREAMModel{Est: est}, nil
}

// Name implements CostModel.
func (m *CompositeDREAMModel) Name() string { return "dream-composite" }

// breakdown indices in federation.BreakdownMetrics.
const (
	bdTime = iota
	bdMoney
	bdLeft
	bdRight
	bdShip
	bdFinal
	bdCount // len(federation.BreakdownMetrics)
)

// Estimate implements CostModel. The returned vector is in
// federation.Metrics order (time, money) regardless of the history's
// extended metric set.
func (m *CompositeDREAMModel) Estimate(h *core.History, x []float64) ([]float64, error) {
	return m.EstimateSnapshot(h.Snapshot(), x)
}

// EstimateSnapshot implements SnapshotCostModel.
func (m *CompositeDREAMModel) EstimateSnapshot(s *core.Snapshot, x []float64) ([]float64, error) {
	return m.EstimateRows(make([]float64, 0, len(federation.Metrics)), s, x, len(x))
}

// EstimateRows implements BatchCostModel: one prediction of the pieces
// for the whole chunk, then the composition rule row by row.
func (m *CompositeDREAMModel) EstimateRows(dst []float64, s *core.Snapshot, xs []float64, dim int) ([]float64, error) {
	if n := s.NumMetrics(); n != bdCount {
		return nil, fmt.Errorf("ires: composite model needs a %d-metric breakdown history, got %d", bdCount, n)
	}
	pieces, err := m.Est.PredictRows(nil, s, xs, dim)
	if err != nil {
		return nil, err
	}
	clampRows(pieces)
	for ; len(pieces) > 0; pieces = pieces[bdCount:] {
		prep := pieces[bdLeft]
		if pieces[bdRight] > prep {
			prep = pieces[bdRight]
		}
		dst = append(dst, prep+pieces[bdShip]+pieces[bdFinal], pieces[bdMoney])
	}
	return dst, nil
}
