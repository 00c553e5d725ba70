package experiments

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/regression"
)

// Table1Pricing reproduces the paper's Table 1: the instance catalogs
// and prices of the two providers the federation spans.
func Table1Pricing() *Table {
	t := &Table{
		Title:  "Table 1: Example of instances pricing.",
		Header: []string{"Provider", "Machine", "vCPU", "Memory (GiB)", "Storage (GiB)", "Price"},
	}
	for _, p := range []*cloud.Provider{cloud.Amazon(), cloud.Microsoft()} {
		for i, it := range p.Instances {
			provider := ""
			if i == 0 {
				provider = p.Name
			}
			storage := "EBS-Only"
			if it.StorageGiB > 0 {
				storage = fmt.Sprintf("%.0f", it.StorageGiB)
			}
			t.Rows = append(t.Rows, []string{
				provider, it.Name,
				fmt.Sprintf("%d", it.VCPU),
				fmt.Sprintf("%.0f", it.MemoryGiB),
				storage,
				fmt.Sprintf("$%.4f/hour", it.PricePerHour),
			})
		}
	}
	return t
}

// paperTable2Data is the exact 10-observation dataset printed in the
// paper's Table 2 (cost, x1, x2).
var paperTable2Data = []regression.Sample{
	{X: []float64{0.4916, 0.2977}, C: 20.640},
	{X: []float64{0.6313, 0.0482}, C: 15.557},
	{X: []float64{0.9481, 0.8232}, C: 20.971},
	{X: []float64{0.4855, 2.7056}, C: 24.878},
	{X: []float64{0.0125, 2.7268}, C: 23.274},
	{X: []float64{0.9029, 2.6456}, C: 30.216},
	{X: []float64{0.7233, 3.0640}, C: 29.978},
	{X: []float64{0.8749, 4.2847}, C: 31.702},
	{X: []float64{0.3354, 2.1082}, C: 20.860},
	{X: []float64{0.8521, 4.8217}, C: 32.836},
}

// PaperTable2R2 is the R² column as printed in the paper, keyed by M.
var PaperTable2R2 = map[int]float64{
	4: 0.7571, 5: 0.7705, 6: 0.8371, 7: 0.8788,
	8: 0.8876, 9: 0.8751, 10: 0.8945,
}

// Table2R2 recomputes the paper's Table 2 — R² of the MLR model as the
// window M grows over the published dataset — with our own solver, and
// prints the paper's value next to ours. Agreement here validates the
// regression kernel end to end.
func Table2R2() (*Table, error) {
	t := &Table{
		Title:  "Table 2: Using MLR in different size of dataset.",
		Header: []string{"M", "R² (this repo)", "R² (paper)", "|diff|"},
		Notes: []string{
			"fit over the first M rows of the paper's published 10-point dataset",
		},
	}
	for m := 4; m <= 10; m++ {
		model, err := regression.Fit(paperTable2Data[:m])
		if err != nil {
			return nil, fmt.Errorf("experiments: table 2 fit at M=%d: %w", m, err)
		}
		paper := PaperTable2R2[m]
		diff := model.R2 - paper
		if diff < 0 {
			diff = -diff
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", m),
			fmt.Sprintf("%.4f", model.R2),
			fmt.Sprintf("%.4f", paper),
			fmt.Sprintf("%.4f", diff),
		})
	}
	return t, nil
}
