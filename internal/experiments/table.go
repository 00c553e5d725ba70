// Package experiments regenerates every table and figure of the paper's
// evaluation (and the ablations DESIGN.md calls out) as plain-text
// tables, so `midasctl` and the benchmark harness print the same rows
// the paper reports. Absolute numbers come from the simulated
// federation, not the authors' testbed; EXPERIMENTS.md records the
// shape comparison.
package experiments

import (
	"fmt"
	"strings"
)

// Artefact is one of the paper's tables or figures, or the ablations:
// Run computes it from the campaign options (table3 and table4 read all
// of them, the rest only the seed) and returns the tables to print.
type Artefact struct {
	Name, Doc string
	Run       func(MREOptions) ([]*Table, error)
}

// Artefacts are the paper's artefacts in paper order, then the
// ablations.
var Artefacts = []Artefact{
	{"pricing", "print Table 1 (instance pricing)", func(MREOptions) ([]*Table, error) {
		return []*Table{Table1Pricing()}, nil
	}},
	{"table2", "print Table 2 (R² vs window size, exact-match check)", func(MREOptions) ([]*Table, error) {
		return tables(Table2R2())
	}},
	{"table3", "print Table 3 (MRE at 100 MiB)", func(o MREOptions) ([]*Table, error) {
		return mreTables(0.1, o, "Table 3: Comparison of mean relative error with 100MiB TPC-H dataset.")
	}},
	{"table4", "print Table 4 (MRE at 1 GiB)", func(o MREOptions) ([]*Table, error) {
		return mreTables(1, o, "Table 4: Comparison of mean relative error with 1GiB TPC-H dataset.")
	}},
	{"fig3", "print the Figure 3 comparison (NSGA-II, the exact sweep and the weighted sum, at 30 and 18,432 plans)", func(o MREOptions) ([]*Table, error) {
		_, t, err := RunFig3(o.Seed)
		return tables(t, err)
	}},
	{"example31", "print the Example 3.1 estimation-throughput study", func(o MREOptions) ([]*Table, error) {
		_, t, err := RunExample31(Example31Options{Seed: o.Seed})
		return tables(t, err)
	}},
	{"ablations", "print the four design-choice ablations: window growth, R² threshold, recency and composite", func(o MREOptions) ([]*Table, error) {
		return Ablations(o.Seed)
	}},
}

func tables(t *Table, err error) ([]*Table, error) {
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

func mreTables(sf float64, opts MREOptions, title string) ([]*Table, error) {
	res, err := RunMRE(sf, opts)
	if err != nil {
		return nil, err
	}
	return []*Table{MRETable(res, title)}, nil
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	b.WriteString(t.Title)
	b.WriteString("\n")
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		b.WriteString("note: ")
		b.WriteString(n)
		b.WriteString("\n")
	}
	return b.String()
}
