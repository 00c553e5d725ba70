package engine

import (
	"fmt"
	"strings"

	"repro/internal/tpch"
)

// This file bridges the TPC-H population into engine relations and
// builds the physical plans of the paper's four evaluation queries.
// Each query is split federation-style into three pieces: a *left
// preparation* plan (scan + pushed-down filters/projection on the fact
// table's site), a *right preparation* plan (same for the dimension
// table's site), and a *final* plan (join + aggregation at whichever
// site the optimizer picks) that consumes the shipped prep results
// registered as tables "left" and "right".

// ToRelation converts a generated TPC-H table into an engine relation,
// copying each field into its column. Only the columns the evaluation
// queries read are materialized.
func ToRelation(db *tpch.Database, table string) (*Relation, error) {
	rel := &Relation{Name: table}
	switch table {
	case "lineitem":
		n := len(db.Lineitems)
		orderKey, partKey := make([]int64, n), make([]int64, n)
		qty, price, disc := make([]float64, n), make([]float64, n), make([]float64, n)
		ship, commit, receipt := make([]int64, n), make([]int64, n), make([]int64, n)
		mode := make([]string, n)
		for i := range db.Lineitems {
			l := &db.Lineitems[i]
			orderKey[i], partKey[i] = int64(l.OrderKey), int64(l.PartKey)
			qty[i], price[i], disc[i] = l.Quantity, l.ExtendedPrice, l.Discount
			ship[i], commit[i], receipt[i] = int64(l.ShipDate), int64(l.CommitDate), int64(l.ReceiptDate)
			mode[i] = l.ShipMode.String()
		}
		rel.Schema = Schema{
			"l_orderkey", "l_partkey", "l_quantity", "l_extendedprice",
			"l_discount", "l_shipdate", "l_commitdate", "l_receiptdate", "l_shipmode",
		}
		rel.Cols = []Column{
			{Kind: Int, Ints: orderKey}, {Kind: Int, Ints: partKey},
			{Kind: Float, Floats: qty}, {Kind: Float, Floats: price}, {Kind: Float, Floats: disc},
			{Kind: Int, Ints: ship}, {Kind: Int, Ints: commit}, {Kind: Int, Ints: receipt},
			{Kind: Str, Strs: mode},
		}
	case "orders":
		n := len(db.Orders)
		orderKey, custKey := make([]int64, n), make([]int64, n)
		prio, comment := make([]string, n), make([]string, n)
		for i := range db.Orders {
			o := &db.Orders[i]
			orderKey[i], custKey[i], prio[i], comment[i] = int64(o.OrderKey), int64(o.CustKey), o.OrderPriority, o.Comment
		}
		rel.Schema = Schema{"o_orderkey", "o_custkey", "o_orderpriority", "o_comment"}
		rel.Cols = []Column{
			{Kind: Int, Ints: orderKey}, {Kind: Int, Ints: custKey},
			{Kind: Str, Strs: prio}, {Kind: Str, Strs: comment},
		}
	case "customer":
		custKey := make([]int64, len(db.Customers))
		for i := range db.Customers {
			custKey[i] = int64(db.Customers[i].CustKey)
		}
		rel.Schema = Schema{"c_custkey"}
		rel.Cols = []Column{{Kind: Int, Ints: custKey}}
	case "part":
		n := len(db.Parts)
		partKey := make([]int64, n)
		brand, typ, container := make([]string, n), make([]string, n), make([]string, n)
		for i := range db.Parts {
			p := &db.Parts[i]
			partKey[i], brand[i], typ[i], container[i] = int64(p.PartKey), p.Brand, p.Type, p.Container
		}
		rel.Schema = Schema{"p_partkey", "p_brand", "p_type", "p_container"}
		rel.Cols = []Column{
			{Kind: Int, Ints: partKey},
			{Kind: Str, Strs: brand}, {Kind: Str, Strs: typ}, {Kind: Str, Strs: container},
		}
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownTable, table)
	}
	return rel, nil
}

// QueryPlan is the federated decomposition of one evaluation query.
type QueryPlan struct {
	Query tpch.QueryID
	// LeftTable/RightTable name the base tables of the two prep plans.
	LeftTable, RightTable string
	// LeftPrep/RightPrep run at the sites owning the tables.
	LeftPrep, RightPrep Node
	// Final runs at the join site over tables "left" and "right".
	Final Node
}

// BuildPlan constructs the federated plan of a studied query with the
// spec's default substitution parameters.
func BuildPlan(q tpch.QueryID) (*QueryPlan, error) {
	switch q {
	case tpch.QueryQ12:
		return buildQ12(), nil
	case tpch.QueryQ13:
		return buildQ13(), nil
	case tpch.QueryQ14:
		return buildQ14(), nil
	case tpch.QueryQ17:
		return buildQ17(), nil
	}
	return nil, fmt.Errorf("engine: no plan builder for query %v", q)
}

func buildQ12() *QueryPlan {
	p := tpch.DefaultQ12Params()
	start, end := int64(p.StartDate), int64(p.StartDate.AddYears(1))
	modes := map[string]bool{}
	for _, m := range p.ShipModes {
		modes[m] = true
	}
	left := &Project{
		In: &Filter{
			In: &Scan{Table: "lineitem"},
			Pred: func(b *Binder) func(int) bool {
				mode, ship := b.Strs("l_shipmode"), b.Ints("l_shipdate")
				commit, receipt := b.Ints("l_commitdate"), b.Ints("l_receiptdate")
				return func(i int) bool {
					return receipt[i] >= start && receipt[i] < end &&
						commit[i] < receipt[i] && ship[i] < commit[i] && modes[mode[i]]
				}
			},
		},
		Cols: []string{"l_orderkey", "l_shipmode"},
	}
	right := &Project{
		In:   &Scan{Table: "orders"},
		Cols: []string{"o_orderkey", "o_orderpriority"},
	}
	priority := func(high bool) Pred {
		return func(b *Binder) func(int) bool {
			prio := b.Strs("o_orderpriority")
			return func(i int) bool {
				return (prio[i] == "1-URGENT" || prio[i] == "2-HIGH") == high
			}
		}
	}
	final := &Sort{
		In: &Aggregate{
			In: &HashJoin{
				Left:    &Scan{Table: "left"},
				Right:   &Scan{Table: "right"},
				LeftKey: "l_orderkey", RightKey: "o_orderkey",
			},
			GroupBy: []string{"l_shipmode"},
			Aggs: []AggSpec{
				{As: "high_line_count", Kind: Count, Where: priority(true)},
				{As: "low_line_count", Kind: Count, Where: priority(false)},
			},
		},
		Less: func(b *Binder) func(i, j int) bool {
			mode := b.Strs("l_shipmode")
			return func(i, j int) bool { return mode[i] < mode[j] }
		},
	}
	return &QueryPlan{
		Query: tpch.QueryQ12, LeftTable: "lineitem", RightTable: "orders",
		LeftPrep: left, RightPrep: right, Final: final,
	}
}

func buildQ13() *QueryPlan {
	p := tpch.DefaultQ13Params()
	// Left prep: orders surviving the comment filter.
	left := &Project{
		In: &Filter{
			In: &Scan{Table: "orders"},
			Pred: func(b *Binder) func(int) bool {
				comment := b.Strs("o_comment")
				return func(i int) bool { return !likePattern(comment[i], p.Word1, p.Word2) }
			},
		},
		Cols: []string{"o_orderkey", "o_custkey"},
	}
	right := &Project{In: &Scan{Table: "customer"}, Cols: []string{"c_custkey"}}
	// Final: customer ⟕ filtered-orders, count orders per customer,
	// histogram the counts.
	perCustomer := &Aggregate{
		In: &HashJoin{
			Left:    &Scan{Table: "right"}, // customer drives the outer join
			Right:   &Scan{Table: "left"},
			LeftKey: "c_custkey", RightKey: "o_custkey",
			Type: LeftOuter,
		},
		GroupBy: []string{"c_custkey"},
		Aggs: []AggSpec{{
			As: "c_count", Kind: Count,
			Where: func(b *Binder) func(int) bool {
				order := b.Col("o_orderkey", Int)
				return func(i int) bool { return !order.IsNull(i) }
			},
		}},
	}
	final := &Sort{
		In: &Aggregate{
			In:      perCustomer,
			GroupBy: []string{"c_count"},
			Aggs:    []AggSpec{{As: "custdist", Kind: Count}},
		},
		Less: func(b *Binder) func(i, j int) bool {
			dist, count := b.Ints("custdist"), b.Ints("c_count")
			return func(i, j int) bool {
				if dist[i] != dist[j] {
					return dist[i] > dist[j]
				}
				return count[i] > count[j]
			}
		},
	}
	return &QueryPlan{
		Query: tpch.QueryQ13, LeftTable: "orders", RightTable: "customer",
		LeftPrep: left, RightPrep: right, Final: final,
	}
}

func buildQ14() *QueryPlan {
	p := tpch.DefaultQ14Params()
	start, end := int64(p.StartDate), int64(p.StartDate.AddMonths(1))
	left := &Project{
		In: &Filter{
			In: &Scan{Table: "lineitem"},
			Pred: func(b *Binder) func(int) bool {
				ship := b.Ints("l_shipdate")
				return func(i int) bool { return ship[i] >= start && ship[i] < end }
			},
		},
		Cols: []string{"l_partkey", "l_extendedprice", "l_discount"},
	}
	right := &Project{In: &Scan{Table: "part"}, Cols: []string{"p_partkey", "p_type"}}
	revenue := func(b *Binder) func(int) float64 {
		price, disc := b.Floats("l_extendedprice"), b.Floats("l_discount")
		return func(i int) float64 { return price[i] * (1 - disc[i]) }
	}
	final := &Map{
		In: &Aggregate{
			In: &HashJoin{
				Left:    &Scan{Table: "left"},
				Right:   &Scan{Table: "right"},
				LeftKey: "l_partkey", RightKey: "p_partkey",
			},
			Aggs: []AggSpec{
				{As: "promo_revenue_sum", Kind: Sum, Val: revenue,
					Where: func(b *Binder) func(int) bool {
						typ := b.Strs("p_type")
						return func(i int) bool { return strings.HasPrefix(typ[i], "PROMO") }
					}},
				{As: "total_revenue", Kind: Sum, Val: revenue},
			},
		},
		As: "promo_revenue",
		Val: func(b *Binder) func(int) float64 {
			promo, total := b.Floats("promo_revenue_sum"), b.Floats("total_revenue")
			return func(i int) float64 {
				if total[i] == 0 {
					return 0
				}
				return 100 * promo[i] / total[i]
			}
		},
	}
	return &QueryPlan{
		Query: tpch.QueryQ14, LeftTable: "lineitem", RightTable: "part",
		LeftPrep: left, RightPrep: right, Final: final,
	}
}

// floatCol reads a float64 column as a row value.
func floatCol(name string) ValueFn {
	return func(b *Binder) func(int) float64 {
		v := b.Floats(name)
		return func(i int) float64 { return v[i] }
	}
}

func buildQ17() *QueryPlan {
	p := tpch.DefaultQ17Params()
	left := &Project{
		In:   &Scan{Table: "lineitem"},
		Cols: []string{"l_partkey", "l_quantity", "l_extendedprice"},
	}
	right := &Project{
		In: &Filter{
			In: &Scan{Table: "part"},
			Pred: func(b *Binder) func(int) bool {
				brand, container := b.Strs("p_brand"), b.Strs("p_container")
				return func(i int) bool { return brand[i] == p.Brand && container[i] == p.Container }
			},
		},
		Cols: []string{"p_partkey"},
	}
	joined := &Cached{In: &HashJoin{
		Left:    &Scan{Table: "left"},
		Right:   &Scan{Table: "right"},
		LeftKey: "l_partkey", RightKey: "p_partkey",
	}}
	avgQty := &Aggregate{
		In:      joined,
		GroupBy: []string{"p_partkey"},
		Aggs:    []AggSpec{{As: "avg_qty", Kind: Avg, Val: floatCol("l_quantity")}},
	}
	withAvg := &HashJoin{
		Left:    joined,
		Right:   avgQty,
		LeftKey: "l_partkey", RightKey: "p_partkey",
	}
	final := &Map{
		In: &Aggregate{
			In: &Filter{
				In: withAvg,
				Pred: func(b *Binder) func(int) bool {
					qty, avg := b.Floats("l_quantity"), b.Floats("avg_qty")
					return func(i int) bool { return qty[i] < 0.2*avg[i] }
				},
			},
			Aggs: []AggSpec{{As: "sum_price", Kind: Sum, Val: floatCol("l_extendedprice")}},
		},
		As: "avg_yearly",
		Val: func(b *Binder) func(int) float64 {
			sum := b.Floats("sum_price")
			return func(i int) float64 { return sum[i] / 7.0 }
		},
	}
	return &QueryPlan{
		Query: tpch.QueryQ17, LeftTable: "lineitem", RightTable: "part",
		LeftPrep: left, RightPrep: right, Final: final,
	}
}

// likePattern mirrors tpch.matchesLikePattern for plan predicates
// (LIKE '%w1%w2%').
func likePattern(s, w1, w2 string) bool {
	i := strings.Index(s, w1)
	return i >= 0 && strings.Contains(s[i+len(w1):], w2)
}
