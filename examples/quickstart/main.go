// Quickstart: DREAM in ten minutes.
//
// This example shows the paper's core idea in isolation, without the
// federation: estimate a cost metric with Multiple Linear Regression
// over a *dynamic* window of recent history (Algorithm 1). The
// simulated environment drifts — the cost coefficients change halfway
// through, as a cloud's load does — and DREAM keeps tracking it while
// a full-history fit drags the stale regime along.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"

	"repro/internal/core"
	"repro/internal/regression"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	rng := rand.New(rand.NewSource(7))

	// A history of executions with two features (data size in MiB,
	// node count) and two cost metrics (time, money).
	hist, err := core.NewHistory(2, "time_s", "money_usd")
	if err != nil {
		return err
	}

	// Regime 1: time = 5 + 0.10·size + 2·nodes.
	// Regime 2 (after observation 60): the site got busy — everything
	// is 2.2× slower. Old observations are now "expired information".
	record := func(n int, timeScale float64) error {
		for i := 0; i < n; i++ {
			size := 50 + rng.Float64()*100
			nodes := float64(rng.Intn(4) + 1)
			timeC := (5 + 0.10*size + 2*nodes) * timeScale * (1 + 0.03*rng.NormFloat64())
			moneyC := timeC * 0.002 * nodes
			if err := hist.Append(core.Observation{
				X:     []float64{size, nodes},
				Costs: []float64{timeC, moneyC},
			}); err != nil {
				return err
			}
		}
		return nil
	}
	if err := record(60, 1.0); err != nil {
		return err
	}
	if err := record(25, 2.2); err != nil {
		return err
	}

	dream, err := core.NewEstimator(core.Config{
		RequiredR2: core.DefaultRequiredR2, // the paper's 0.8
		MMax:       20,
	})
	if err != nil {
		return err
	}

	// Estimate a new plan: 120 MiB on 2 nodes, in the busy regime.
	x := []float64{120, 2}
	est, err := dream.EstimateCostValue(hist, x)
	if err != nil {
		return err
	}
	truth := (5 + 0.10*120 + 2*2) * 2.2

	fmt.Fprintln(w, "DREAM quickstart — dynamic-window cost estimation")
	fmt.Fprintf(w, "history: %d observations (regime change at #60)\n\n", hist.Len())
	fmt.Fprintf(w, "plan features: size=%.0f MiB, nodes=%.0f\n", x[0], x[1])
	fmt.Fprintf(w, "true time under current regime: %.1f s\n\n", truth)
	fmt.Fprintf(w, "DREAM window: %d most recent observations (converged=%v, %d refits)\n",
		est.WindowSize, est.Converged, est.Refits)
	for _, m := range est.Metrics {
		fmt.Fprintf(w, "  %-10s estimate=%8.3f   R²=%.3f\n", m.Metric, m.Value, m.R2)
	}

	// Contrast: a single MLR over the whole history mixes both regimes.
	var all []regression.Sample
	for i := 0; i < hist.Len(); i++ {
		obs := hist.At(i)
		all = append(all, regression.Sample{X: obs.X, C: obs.Costs[0]})
	}
	full, err := regression.Fit(all)
	if err != nil {
		return err
	}
	fullPred, err := full.Predict(x)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nfull-history MLR estimate: %.3f s (stale: off by %.0f%%)\n",
		fullPred, 100*absRel(fullPred, truth))
	fmt.Fprintf(w, "DREAM estimate:            %.3f s (off by %.0f%%)\n",
		est.Metrics[0].Value, 100*absRel(est.Metrics[0].Value, truth))
	return nil
}

func absRel(pred, truth float64) float64 {
	d := (pred - truth) / truth
	if d < 0 {
		return -d
	}
	return d
}
