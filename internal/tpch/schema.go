// Package tpch is a pure-Go, deterministic implementation of the TPC-H
// decision-support benchmark schema and data generator, scoped to what
// the paper's evaluation needs: the eight standard tables at a
// configurable scale factor and the four two-table queries the paper
// studies (Q12, Q13, Q14, Q17), each with a straightforward reference
// implementation that serves as ground truth for the query engines.
//
// Dates are stored as days since 1992-01-01 (the earliest date in the
// TPC-H population) so rows stay compact and comparisons stay integer.
package tpch

import (
	"fmt"
	"time"
)

// Epoch is day zero of the Date encoding.
var Epoch = time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)

// Date is a day offset from Epoch.
type Date int32

// MakeDate converts a calendar date to its Date offset.
func MakeDate(year, month, day int) Date {
	t := time.Date(year, time.Month(month), day, 0, 0, 0, 0, time.UTC)
	return Date(t.Sub(Epoch).Hours() / 24)
}

// Time converts back to a time.Time.
func (d Date) Time() time.Time { return Epoch.AddDate(0, 0, int(d)) }

// String renders as YYYY-MM-DD.
func (d Date) String() string { return d.Time().Format("2006-01-02") }

// AddDays returns d shifted by n days.
func (d Date) AddDays(n int) Date { return d + Date(n) }

// AddMonths returns d shifted by n calendar months.
func (d Date) AddMonths(n int) Date {
	t := d.Time().AddDate(0, n, 0)
	return Date(t.Sub(Epoch).Hours() / 24)
}

// AddYears returns d shifted by n calendar years.
func (d Date) AddYears(n int) Date {
	t := d.Time().AddDate(n, 0, 0)
	return Date(t.Sub(Epoch).Hours() / 24)
}

// Region mirrors TPC-H REGION.
type Region struct {
	RegionKey int32
	Name      string
}

// Nation mirrors TPC-H NATION.
type Nation struct {
	NationKey int32
	Name      string
	RegionKey int32
}

// Customer mirrors the TPC-H CUSTOMER columns the studied queries touch.
type Customer struct {
	CustKey    int32
	Name       string
	NationKey  int32
	AcctBal    float64
	MktSegment string
}

// Order mirrors TPC-H ORDERS.
type Order struct {
	OrderKey      int32
	CustKey       int32
	OrderStatus   byte
	TotalPrice    float64
	OrderDate     Date
	OrderPriority string
	Comment       string
}

// Lineitem mirrors TPC-H LINEITEM.
type Lineitem struct {
	OrderKey      int32
	PartKey       int32
	SuppKey       int32
	LineNumber    int32
	Quantity      float64
	ExtendedPrice float64
	Discount      float64
	Tax           float64
	ReturnFlag    byte
	LineStatus    byte
	ShipDate      Date
	CommitDate    Date
	ReceiptDate   Date
	ShipInstruct  ShipInstruct
	ShipMode      ShipMode
}

// ShipInstruct is a Lineitem's shipping instruction, a code into the
// spec's four instructions. A code, not a string, keeps Lineitem free
// of pointers, so the garbage collector never scans the lineitem table.
type ShipInstruct uint8

// String returns the instruction's text, e.g. "DELIVER IN PERSON".
func (s ShipInstruct) String() string { return shipInstructs[s] }

// ShipMode is a Lineitem's shipping mode, a code into ShipModes.
type ShipMode uint8

// String returns the mode's text, e.g. "MAIL".
func (m ShipMode) String() string { return ShipModes[m] }

// Part mirrors TPC-H PART.
type Part struct {
	PartKey     int32
	Name        string
	Mfgr        string
	Brand       string
	Type        string
	Size        int32
	Container   string
	RetailPrice float64
}

// Supplier mirrors TPC-H SUPPLIER.
type Supplier struct {
	SuppKey   int32
	Name      string
	NationKey int32
}

// PartSupp mirrors TPC-H PARTSUPP.
type PartSupp struct {
	PartKey    int32
	SuppKey    int32
	AvailQty   int32
	SupplyCost float64
}

// Database holds one generated TPC-H population.
type Database struct {
	SF        float64
	Regions   []Region
	Nations   []Nation
	Customers []Customer
	Orders    []Order
	Lineitems []Lineitem
	Parts     []Part
	Suppliers []Supplier
	PartSupps []PartSupp
}

// approxRowBytes are the canonical average row widths (bytes) from the
// TPC-H specification, used to size tables without materializing text
// padding.
var approxRowBytes = map[string]float64{
	"region":   124,
	"nation":   128,
	"customer": 179,
	"orders":   104,
	"lineitem": 112,
	"part":     155,
	"supplier": 159,
	"partsupp": 144,
}

// TableBytes returns the approximate serialized size of a table in this
// database, for the cost features the estimators regress on.
func (db *Database) TableBytes(table string) (float64, error) {
	w, ok := approxRowBytes[table]
	if !ok {
		return 0, fmt.Errorf("tpch: unknown table %q", table)
	}
	var n int
	switch table {
	case "region":
		n = len(db.Regions)
	case "nation":
		n = len(db.Nations)
	case "customer":
		n = len(db.Customers)
	case "orders":
		n = len(db.Orders)
	case "lineitem":
		n = len(db.Lineitems)
	case "part":
		n = len(db.Parts)
	case "supplier":
		n = len(db.Suppliers)
	case "partsupp":
		n = len(db.PartSupps)
	}
	return w * float64(n), nil
}

// TableRows returns the row count of a table.
func (db *Database) TableRows(table string) (int, error) {
	switch table {
	case "region":
		return len(db.Regions), nil
	case "nation":
		return len(db.Nations), nil
	case "customer":
		return len(db.Customers), nil
	case "orders":
		return len(db.Orders), nil
	case "lineitem":
		return len(db.Lineitems), nil
	case "part":
		return len(db.Parts), nil
	case "supplier":
		return len(db.Suppliers), nil
	case "partsupp":
		return len(db.PartSupps), nil
	}
	return 0, fmt.Errorf("tpch: unknown table %q", table)
}

// TotalBytes returns the approximate size of the whole database.
func (db *Database) TotalBytes() float64 {
	var total float64
	for table := range approxRowBytes {
		b, err := db.TableBytes(table)
		if err == nil {
			total += b
		}
	}
	return total
}
