package ires

import (
	"fmt"

	"repro/internal/core"
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

// EstimateSnapshot implements CostModel: one prediction of the pieces,
// then the composition rule. The returned vector is in
// federation.Metrics order (time, money) regardless of the history's
// extended metric set.
func (m *CompositeDREAMModel) EstimateSnapshot(s *core.Snapshot, x []float64) ([]float64, error) {
	if n := s.NumMetrics(); n != bdCount {
		return nil, fmt.Errorf("ires: composite model needs a %d-metric breakdown history, got %d", bdCount, n)
	}
	pieces, err := m.Est.PredictSnapshot(make([]float64, 0, bdCount), s, x)
	if err != nil {
		return nil, err
	}
	clampRows(pieces)
	prep := pieces[bdLeft]
	if pieces[bdRight] > prep {
		prep = pieces[bdRight]
	}
	return []float64{prep + pieces[bdShip] + pieces[bdFinal], pieces[bdMoney]}, nil
}
