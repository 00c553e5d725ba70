package tpch

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"
)

func TestWriteCSVAllTables(t *testing.T) {
	db := genSmall(t, 0.002, 40)
	for _, table := range CSVTables {
		var buf bytes.Buffer
		if err := db.WriteCSV(table, &buf); err != nil {
			t.Fatalf("%s: %v", table, err)
		}
		records, err := csv.NewReader(&buf).ReadAll()
		if err != nil {
			t.Fatalf("%s: re-parse: %v", table, err)
		}
		rows, err := db.TableRows(table)
		if err != nil {
			t.Fatal(err)
		}
		if len(records) != rows+1 { // header + data
			t.Errorf("%s: %d CSV rows, want %d", table, len(records), rows+1)
		}
		width := len(records[0])
		for i, rec := range records {
			if len(rec) != width {
				t.Fatalf("%s: row %d has %d fields, header has %d", table, i, len(rec), width)
			}
		}
	}
}

func TestWriteCSVUnknownTable(t *testing.T) {
	db := genSmall(t, 0.002, 41)
	if err := db.WriteCSV("nope", &bytes.Buffer{}); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestWriteCSVLineitemContent(t *testing.T) {
	db := genSmall(t, 0.002, 42)
	var buf bytes.Buffer
	if err := db.WriteCSV("lineitem", &buf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	header := records[0]
	if header[0] != "l_orderkey" || header[len(header)-1] != "l_shipmode" {
		t.Errorf("unexpected header %v", header)
	}
	// Spot-check the first data row against the in-memory value.
	l := db.Lineitems[0]
	row := records[1]
	if row[0] != strconv.FormatInt(int64(l.OrderKey), 10) {
		t.Errorf("orderkey = %s, want %d", row[0], l.OrderKey)
	}
	if !strings.Contains(row[10], "-") {
		t.Errorf("shipdate %q not ISO formatted", row[10])
	}
	if row[13] != l.ShipInstruct.String() {
		t.Errorf("shipinstruct = %s, want %s", row[13], l.ShipInstruct)
	}
	if row[14] != l.ShipMode.String() {
		t.Errorf("shipmode = %s, want %s", row[14], l.ShipMode)
	}
}

func TestWriteCSVCommentQuoting(t *testing.T) {
	// Comments may contain spaces; ensure the CSV round-trips them.
	db := genSmall(t, 0.002, 43)
	var buf bytes.Buffer
	if err := db.WriteCSV("orders", &buf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if records[1][6] != db.Orders[0].Comment {
		t.Errorf("comment %q does not round-trip (%q)", db.Orders[0].Comment, records[1][6])
	}
}
