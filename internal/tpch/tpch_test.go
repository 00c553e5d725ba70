package tpch

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func genSmall(t *testing.T, sf float64, seed int64) *Database {
	t.Helper()
	db, err := Generate(sf, GenOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestDateRoundTrip(t *testing.T) {
	d := MakeDate(1994, 1, 1)
	if got := d.String(); got != "1994-01-01" {
		t.Errorf("String = %q, want 1994-01-01", got)
	}
	if MakeDate(1992, 1, 1) != 0 {
		t.Error("epoch date should encode as 0")
	}
	if d.AddDays(31) != MakeDate(1994, 2, 1) {
		t.Error("AddDays(31) across January is wrong")
	}
	if d.AddMonths(1) != MakeDate(1994, 2, 1) {
		t.Error("AddMonths(1) wrong")
	}
	if d.AddYears(1) != MakeDate(1995, 1, 1) {
		t.Error("AddYears(1) wrong")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(0, GenOptions{}); err == nil {
		t.Error("SF=0 accepted")
	}
	if _, err := Generate(-1, GenOptions{}); err == nil {
		t.Error("negative SF accepted")
	}
}

func TestGenerateRowCountsScale(t *testing.T) {
	db := genSmall(t, 0.01, 1)
	if got, want := len(db.Customers), 1500; got != want {
		t.Errorf("customers = %d, want %d", got, want)
	}
	if got, want := len(db.Orders), 15000; got != want {
		t.Errorf("orders = %d, want %d", got, want)
	}
	if got, want := len(db.Parts), 2000; got != want {
		t.Errorf("parts = %d, want %d", got, want)
	}
	if got, want := len(db.Suppliers), 100; got != want {
		t.Errorf("suppliers = %d, want %d", got, want)
	}
	if got, want := len(db.PartSupps), 8000; got != want {
		t.Errorf("partsupps = %d, want %d", got, want)
	}
	if len(db.Regions) != 5 || len(db.Nations) != 25 {
		t.Errorf("regions/nations = %d/%d, want 5/25", len(db.Regions), len(db.Nations))
	}
	// ~4 lineitems per order on average (1..7 uniform).
	ratio := float64(len(db.Lineitems)) / float64(len(db.Orders))
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("lineitems per order = %v, want ≈4", ratio)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genSmall(t, 0.002, 42)
	b := genSmall(t, 0.002, 42)
	if len(a.Lineitems) != len(b.Lineitems) {
		t.Fatal("same-seed generations differ in size")
	}
	for i := range a.Lineitems {
		if a.Lineitems[i] != b.Lineitems[i] {
			t.Fatalf("lineitem %d differs between same-seed runs", i)
		}
	}
	c := genSmall(t, 0.002, 43)
	same := true
	for i := range a.Lineitems {
		if i >= len(c.Lineitems) || a.Lineitems[i] != c.Lineitems[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestReferentialIntegrity(t *testing.T) {
	db := genSmall(t, 0.005, 2)
	orderKeys := make(map[int32]bool, len(db.Orders))
	for _, o := range db.Orders {
		orderKeys[o.OrderKey] = true
		if o.CustKey < 1 || int(o.CustKey) > len(db.Customers) {
			t.Fatalf("order %d references missing customer %d", o.OrderKey, o.CustKey)
		}
	}
	for _, l := range db.Lineitems {
		if !orderKeys[l.OrderKey] {
			t.Fatalf("lineitem references missing order %d", l.OrderKey)
		}
		if l.PartKey < 1 || int(l.PartKey) > len(db.Parts) {
			t.Fatalf("lineitem references missing part %d", l.PartKey)
		}
		if l.SuppKey < 1 || int(l.SuppKey) > len(db.Suppliers) {
			t.Fatalf("lineitem references missing supplier %d", l.SuppKey)
		}
	}
	for _, n := range db.Nations {
		if n.RegionKey < 0 || int(n.RegionKey) >= len(db.Regions) {
			t.Fatalf("nation %s references missing region %d", n.Name, n.RegionKey)
		}
	}
}

func TestLineitemDateOrdering(t *testing.T) {
	db := genSmall(t, 0.003, 3)
	for _, l := range db.Lineitems {
		if l.ReceiptDate <= l.ShipDate {
			t.Fatalf("receipt %v not after ship %v", l.ReceiptDate, l.ShipDate)
		}
	}
}

func TestTableBytesAndRows(t *testing.T) {
	db := genSmall(t, 0.01, 4)
	b, err := db.TableBytes("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if b <= 0 {
		t.Error("lineitem bytes not positive")
	}
	n, err := db.TableRows("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if n != len(db.Lineitems) {
		t.Errorf("TableRows = %d, want %d", n, len(db.Lineitems))
	}
	if _, err := db.TableBytes("nope"); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := db.TableRows("nope"); err == nil {
		t.Error("unknown table accepted")
	}
	if db.TotalBytes() <= b {
		t.Error("TotalBytes should exceed a single table")
	}
	// SF 0.1 should be on the order of 100 MB: check scaling holds
	// within a loose factor using SF ratios instead of regenerating.
	perSF := db.TotalBytes() / 0.01
	if perSF < 0.5e9 || perSF > 2e9 {
		t.Errorf("extrapolated SF-1 size = %.2e bytes, want ≈1e9", perSF)
	}
}

func TestQ12Reference(t *testing.T) {
	db := genSmall(t, 0.01, 5)
	rows := Q12(db, DefaultQ12Params())
	if len(rows) == 0 || len(rows) > 2 {
		t.Fatalf("Q12 returned %d groups, want 1–2 (MAIL, SHIP)", len(rows))
	}
	for i, r := range rows {
		if r.ShipMode != "MAIL" && r.ShipMode != "SHIP" {
			t.Errorf("unexpected group %q", r.ShipMode)
		}
		if r.HighLineCount < 0 || r.LowLineCount < 0 || r.HighLineCount+r.LowLineCount == 0 {
			t.Errorf("group %q has empty counts", r.ShipMode)
		}
		if i > 0 && rows[i-1].ShipMode >= r.ShipMode {
			t.Error("Q12 output not sorted by shipmode")
		}
		// Priorities split roughly 2:3 (2 of 5 priorities are high).
		frac := float64(r.HighLineCount) / float64(r.HighLineCount+r.LowLineCount)
		if frac < 0.25 || frac > 0.55 {
			t.Errorf("group %q high fraction = %v, want ≈0.4", r.ShipMode, frac)
		}
	}
}

func TestQ13Reference(t *testing.T) {
	db := genSmall(t, 0.01, 6)
	rows := Q13(db, DefaultQ13Params())
	if len(rows) == 0 {
		t.Fatal("Q13 returned no groups")
	}
	var custSum int64
	for i, r := range rows {
		custSum += r.CustDist
		if i > 0 {
			prev := rows[i-1]
			if prev.CustDist < r.CustDist ||
				(prev.CustDist == r.CustDist && prev.CCount < r.CCount) {
				t.Error("Q13 output not sorted by (custdist desc, c_count desc)")
			}
		}
	}
	// Every customer lands in exactly one bucket.
	if custSum != int64(len(db.Customers)) {
		t.Errorf("Q13 distributes %d customers, want %d", custSum, len(db.Customers))
	}
}

func TestQ13ExcludesFilteredComments(t *testing.T) {
	db := genSmall(t, 0.01, 7)
	withFilter := Q13(db, DefaultQ13Params())
	withoutFilter := Q13(db, Q13Params{Word1: "zz", Word2: "zz"})
	// The filter removes ~5% of orders, so the zero-order bucket (or low
	// buckets) must differ.
	same := len(withFilter) == len(withoutFilter)
	if same {
		for i := range withFilter {
			if withFilter[i] != withoutFilter[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("comment filter had no effect on Q13")
	}
}

func TestMatchesLikePattern(t *testing.T) {
	cases := []struct {
		s    string
		want bool
	}{
		{"foo special bar requests baz", true},
		{"special requests", true},
		{"specialrequests", true},
		{"requests special", false}, // order matters
		{"special only", false},
		{"nothing here", false},
	}
	for _, c := range cases {
		if got := matchesLikePattern(c.s, "special", "requests"); got != c.want {
			t.Errorf("matchesLikePattern(%q) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestQ14Reference(t *testing.T) {
	db := genSmall(t, 0.01, 8)
	promo := Q14(db, DefaultQ14Params())
	// PROMO is 1 of 6 first type syllables → ≈16.7%.
	if promo < 5 || promo > 35 {
		t.Errorf("Q14 promo revenue = %v%%, want ≈16.7%%", promo)
	}
	// Manual cross-check on the filtered month.
	p := DefaultQ14Params()
	end := p.StartDate.AddMonths(1)
	types := make(map[int32]string)
	for _, pt := range db.Parts {
		types[pt.PartKey] = pt.Type
	}
	var promoRev, totalRev float64
	for _, l := range db.Lineitems {
		if l.ShipDate < p.StartDate || l.ShipDate >= end {
			continue
		}
		rev := l.ExtendedPrice * (1 - l.Discount)
		totalRev += rev
		if strings.HasPrefix(types[l.PartKey], "PROMO") {
			promoRev += rev
		}
	}
	want := 100 * promoRev / totalRev
	if diff := promo - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("Q14 = %v, manual = %v", promo, want)
	}
}

func TestQ17Reference(t *testing.T) {
	db := genSmall(t, 0.02, 9)
	rev := Q17(db, DefaultQ17Params())
	if rev < 0 {
		t.Errorf("Q17 revenue = %v, want ≥ 0", rev)
	}
	// A brand/container combination that cannot exist returns 0.
	if got := Q17(db, Q17Params{Brand: "Brand#99", Container: "XX YY"}); got != 0 {
		t.Errorf("impossible filter returned %v, want 0", got)
	}
}

func TestQueryIDMetadata(t *testing.T) {
	for _, q := range AllQueries {
		l, r := q.Tables()
		if l == "" || r == "" {
			t.Errorf("%v has no tables", q)
		}
		if q.String() == "Q?" {
			t.Errorf("%v has no name", q)
		}
	}
	if QueryID(99).String() != "Q?" {
		t.Error("unknown query should render Q?")
	}
	l, r := QueryID(99).Tables()
	if l != "" || r != "" {
		t.Error("unknown query should have no tables")
	}
}

func TestPropertyGeneratorScalesMonotonically(t *testing.T) {
	f := func(a, b uint8) bool {
		sfA := float64(a%50+1) / 1000
		sfB := float64(b%50+1) / 1000
		if sfA > sfB {
			sfA, sfB = sfB, sfA
		}
		dbA, err := Generate(sfA, GenOptions{Seed: 1})
		if err != nil {
			return false
		}
		dbB, err := Generate(sfB, GenOptions{Seed: 1})
		if err != nil {
			return false
		}
		return len(dbA.Orders) <= len(dbB.Orders) &&
			len(dbA.Customers) <= len(dbB.Customers) &&
			len(dbA.Parts) <= len(dbB.Parts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestLineitemHoldsNoPointer: a Lineitem is numbers and codes, so the
// lineitem table, a calibration's largest allocation, holds nothing the
// garbage collector must scan.
func TestLineitemHoldsNoPointer(t *testing.T) {
	if path := pointerIn(reflect.TypeOf(Lineitem{}), "Lineitem"); path != "" {
		t.Errorf("%s holds a pointer", path)
	}
}

// pointerIn returns the path of the first field of typ that is or holds
// a pointer (a string, slice, map, interface, ...), or "" if none does.
func pointerIn(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Struct:
		for i := range typ.NumField() {
			f := typ.Field(i)
			if p := pointerIn(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
		return ""
	case reflect.Array:
		return pointerIn(typ.Elem(), path+"[0]")
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	}
	return path
}
