package tpch

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSV export of the generated population, for feeding real external
// engines or inspecting the data. Column names follow the TPC-H
// convention (table-prefix abbreviations, lower case).

// CSVTables lists the exportable tables.
var CSVTables = []string{
	"region", "nation", "customer", "orders", "lineitem", "part", "supplier", "partsupp",
}

// WriteCSV streams one table as RFC-4180 CSV with a header row.
func (db *Database) WriteCSV(table string, w io.Writer) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	write := func(rec []string) error { return cw.Write(rec) }

	i64 := func(v int32) string { return strconv.FormatInt(int64(v), 10) }
	f64 := func(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

	switch table {
	case "region":
		if err := write([]string{"r_regionkey", "r_name"}); err != nil {
			return err
		}
		for _, r := range db.Regions {
			if err := write([]string{i64(r.RegionKey), r.Name}); err != nil {
				return err
			}
		}
	case "nation":
		if err := write([]string{"n_nationkey", "n_name", "n_regionkey"}); err != nil {
			return err
		}
		for _, n := range db.Nations {
			if err := write([]string{i64(n.NationKey), n.Name, i64(n.RegionKey)}); err != nil {
				return err
			}
		}
	case "customer":
		if err := write([]string{"c_custkey", "c_name", "c_nationkey", "c_acctbal", "c_mktsegment"}); err != nil {
			return err
		}
		for i := range db.Customers {
			c := &db.Customers[i]
			if err := write([]string{i64(c.CustKey), c.Name, i64(c.NationKey), f64(c.AcctBal), c.MktSegment}); err != nil {
				return err
			}
		}
	case "orders":
		if err := write([]string{"o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice", "o_orderdate", "o_orderpriority", "o_comment"}); err != nil {
			return err
		}
		for i := range db.Orders {
			o := &db.Orders[i]
			if err := write([]string{
				i64(o.OrderKey), i64(o.CustKey), string(o.OrderStatus),
				f64(o.TotalPrice), o.OrderDate.String(), o.OrderPriority, o.Comment,
			}); err != nil {
				return err
			}
		}
	case "lineitem":
		if err := write([]string{
			"l_orderkey", "l_partkey", "l_suppkey", "l_linenumber", "l_quantity",
			"l_extendedprice", "l_discount", "l_tax", "l_returnflag", "l_linestatus",
			"l_shipdate", "l_commitdate", "l_receiptdate", "l_shipinstruct", "l_shipmode",
		}); err != nil {
			return err
		}
		for i := range db.Lineitems {
			l := &db.Lineitems[i]
			if err := write([]string{
				i64(l.OrderKey), i64(l.PartKey), i64(l.SuppKey), i64(l.LineNumber),
				f64(l.Quantity), f64(l.ExtendedPrice), f64(l.Discount), f64(l.Tax),
				string(l.ReturnFlag), string(l.LineStatus),
				l.ShipDate.String(), l.CommitDate.String(), l.ReceiptDate.String(),
				l.ShipInstruct.String(), l.ShipMode.String(),
			}); err != nil {
				return err
			}
		}
	case "part":
		if err := write([]string{"p_partkey", "p_name", "p_mfgr", "p_brand", "p_type", "p_size", "p_container", "p_retailprice"}); err != nil {
			return err
		}
		for i := range db.Parts {
			p := &db.Parts[i]
			if err := write([]string{
				i64(p.PartKey), p.Name, p.Mfgr, p.Brand, p.Type,
				i64(p.Size), p.Container, f64(p.RetailPrice),
			}); err != nil {
				return err
			}
		}
	case "supplier":
		if err := write([]string{"s_suppkey", "s_name", "s_nationkey"}); err != nil {
			return err
		}
		for i := range db.Suppliers {
			s := &db.Suppliers[i]
			if err := write([]string{i64(s.SuppKey), s.Name, i64(s.NationKey)}); err != nil {
				return err
			}
		}
	case "partsupp":
		if err := write([]string{"ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost"}); err != nil {
			return err
		}
		for i := range db.PartSupps {
			ps := &db.PartSupps[i]
			if err := write([]string{i64(ps.PartKey), i64(ps.SuppKey), i64(ps.AvailQty), f64(ps.SupplyCost)}); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("tpch: unknown table %q", table)
	}
	cw.Flush()
	return cw.Error()
}
