package tpch

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// The paper studies the four TPC-H queries that join exactly two
// tables — Q12 (lineitem ⋈ orders), Q13 (customer ⟕ orders),
// Q14 and Q17 (lineitem ⋈ part) — because each query's tables can live
// in different engines/clouds. The functions below are direct,
// loop-based reference implementations used as ground truth for the
// query engines and as the federation's "logical query" definitions.

// Q12Params are the substitution parameters of TPC-H Q12.
type Q12Params struct {
	ShipModes []string // two modes; default MAIL, SHIP
	StartDate Date     // default 1994-01-01
}

// DefaultQ12Params returns the spec's validation parameters.
func DefaultQ12Params() Q12Params {
	return Q12Params{ShipModes: []string{"MAIL", "SHIP"}, StartDate: MakeDate(1994, 1, 1)}
}

// Q12Row is one output group of Q12.
type Q12Row struct {
	ShipMode      string
	HighLineCount int64
	LowLineCount  int64
}

// Q12 computes "Shipping Modes and Order Priority".
func Q12(db *Database, p Q12Params) []Q12Row {
	end := p.StartDate.AddYears(1)
	modes := make(map[string]bool, len(p.ShipModes))
	for _, m := range p.ShipModes {
		modes[m] = true
	}
	prio := make(map[int32]string, len(db.Orders))
	for _, o := range db.Orders {
		prio[o.OrderKey] = o.OrderPriority
	}
	groups := make(map[string]*Q12Row)
	for i := range db.Lineitems {
		l := &db.Lineitems[i]
		mode := l.ShipMode.String()
		if !modes[mode] ||
			l.CommitDate >= l.ReceiptDate ||
			l.ShipDate >= l.CommitDate ||
			l.ReceiptDate < p.StartDate || l.ReceiptDate >= end {
			continue
		}
		op, ok := prio[l.OrderKey]
		if !ok {
			continue
		}
		g := groups[mode]
		if g == nil {
			g = &Q12Row{ShipMode: mode}
			groups[mode] = g
		}
		if op == "1-URGENT" || op == "2-HIGH" {
			g.HighLineCount++
		} else {
			g.LowLineCount++
		}
	}
	out := make([]Q12Row, 0, len(groups))
	for _, g := range groups {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ShipMode < out[j].ShipMode })
	return out
}

// Q13Params are the substitution parameters of TPC-H Q13.
type Q13Params struct {
	Word1, Word2 string // default "special", "requests"
}

// DefaultQ13Params returns the spec's validation parameters.
func DefaultQ13Params() Q13Params { return Q13Params{Word1: "special", Word2: "requests"} }

// Q13Row is one output group of Q13.
type Q13Row struct {
	CCount   int64 // orders per customer
	CustDist int64 // customers with that many orders
}

// Q13 computes "Customer Distribution": the histogram of per-customer
// order counts, excluding orders whose comment matches
// %word1%word2%.
func Q13(db *Database, p Q13Params) []Q13Row {
	perCust := make(map[int32]int64, len(db.Customers))
	for _, c := range db.Customers {
		perCust[c.CustKey] = 0
	}
	for i := range db.Orders {
		o := &db.Orders[i]
		if matchesLikePattern(o.Comment, p.Word1, p.Word2) {
			continue
		}
		if _, ok := perCust[o.CustKey]; ok {
			perCust[o.CustKey]++
		}
	}
	hist := make(map[int64]int64)
	for _, n := range perCust {
		hist[n]++
	}
	out := make([]Q13Row, 0, len(hist))
	for c, d := range hist {
		out = append(out, Q13Row{CCount: c, CustDist: d})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CustDist != out[j].CustDist {
			return out[i].CustDist > out[j].CustDist
		}
		return out[i].CCount > out[j].CCount
	})
	return out
}

// matchesLikePattern implements LIKE '%w1%w2%': w1 somewhere, then w2
// somewhere after it.
func matchesLikePattern(s, w1, w2 string) bool {
	i := strings.Index(s, w1)
	if i < 0 {
		return false
	}
	return strings.Contains(s[i+len(w1):], w2)
}

// Q14Params are the substitution parameters of TPC-H Q14.
type Q14Params struct {
	StartDate Date // default 1995-09-01; window is one month
}

// DefaultQ14Params returns the spec's validation parameters.
func DefaultQ14Params() Q14Params { return Q14Params{StartDate: MakeDate(1995, 9, 1)} }

// Q14 computes "Promotion Effect": the percentage of revenue in the
// month that came from promotional parts.
func Q14(db *Database, p Q14Params) float64 {
	end := p.StartDate.AddMonths(1)
	types := make(map[int32]string, len(db.Parts))
	for _, pt := range db.Parts {
		types[pt.PartKey] = pt.Type
	}
	var promo, total float64
	for i := range db.Lineitems {
		l := &db.Lineitems[i]
		if l.ShipDate < p.StartDate || l.ShipDate >= end {
			continue
		}
		t, ok := types[l.PartKey]
		if !ok {
			continue
		}
		rev := l.ExtendedPrice * (1 - l.Discount)
		total += rev
		if strings.HasPrefix(t, "PROMO") {
			promo += rev
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * promo / total
}

// Q17Params are the substitution parameters of TPC-H Q17.
type Q17Params struct {
	Brand     string // default Brand#23
	Container string // default MED BOX
}

// DefaultQ17Params returns the spec's validation parameters.
func DefaultQ17Params() Q17Params { return Q17Params{Brand: "Brand#23", Container: "MED BOX"} }

// Q17 computes "Small-Quantity-Order Revenue": the average yearly
// revenue lost if small orders (below 20% of a part's average quantity)
// were not filled, over parts of one brand and container.
func Q17(db *Database, p Q17Params) float64 {
	// Candidate parts.
	cand := make(map[int32]bool)
	for i := range db.Parts {
		pt := &db.Parts[i]
		if pt.Brand == p.Brand && pt.Container == p.Container {
			cand[pt.PartKey] = true
		}
	}
	if len(cand) == 0 {
		return 0
	}
	// Per-part average quantity over ALL lineitems of that part.
	sum := make(map[int32]float64)
	cnt := make(map[int32]int64)
	for i := range db.Lineitems {
		l := &db.Lineitems[i]
		if cand[l.PartKey] {
			sum[l.PartKey] += l.Quantity
			cnt[l.PartKey]++
		}
	}
	var revenue float64
	for i := range db.Lineitems {
		l := &db.Lineitems[i]
		if !cand[l.PartKey] || cnt[l.PartKey] == 0 {
			continue
		}
		avg := sum[l.PartKey] / float64(cnt[l.PartKey])
		if l.Quantity < 0.2*avg {
			revenue += l.ExtendedPrice
		}
	}
	return revenue / 7.0
}

// QueryID names the four studied queries.
type QueryID int

// The four two-table queries of the paper's evaluation.
const (
	QueryQ12 QueryID = 12
	QueryQ13 QueryID = 13
	QueryQ14 QueryID = 14
	QueryQ17 QueryID = 17
)

// AllQueries lists the evaluation queries in paper order.
var AllQueries = []QueryID{QueryQ12, QueryQ13, QueryQ14, QueryQ17}

// Tables returns the two tables the query joins, in (left, right) order
// with the larger fact table first.
func (q QueryID) Tables() (string, string) {
	switch q {
	case QueryQ12:
		return "lineitem", "orders"
	case QueryQ13:
		return "orders", "customer"
	case QueryQ14, QueryQ17:
		return "lineitem", "part"
	}
	return "", ""
}

// ParseQueryID resolves a textual query name ("Q12", "q12" or "12") to
// a studied QueryID.
func ParseQueryID(s string) (QueryID, error) {
	t := strings.TrimPrefix(strings.TrimPrefix(strings.TrimSpace(s), "Q"), "q")
	n, err := strconv.Atoi(t)
	if err != nil {
		return 0, fmt.Errorf("tpch: unknown query %q", s)
	}
	for _, q := range AllQueries {
		if QueryID(n) == q {
			return q, nil
		}
	}
	return 0, fmt.Errorf("tpch: unknown query %q (studied: Q12, Q13, Q14, Q17)", s)
}

// String implements fmt.Stringer.
func (q QueryID) String() string {
	switch q {
	case QueryQ12:
		return "Q12"
	case QueryQ13:
		return "Q13"
	case QueryQ14:
		return "Q14"
	case QueryQ17:
		return "Q17"
	}
	return "Q?"
}
