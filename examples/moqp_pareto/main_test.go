package main

import (
	"bytes"
	"os"
	"testing"
)

// TestOutputMatchesGolden pins what the example prints. After an
// intended change, regenerate the file with
//
//	go run ./examples/moqp_pareto > examples/moqp_pareto/testdata/golden.txt
func TestOutputMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("output differs from testdata/golden.txt\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}
