package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestTablesMatchGolden pins what pricing (Table 1) and table2 (the R²
// column fitted over the paper's published dataset beside the paper's
// own) print. After an intended change, regenerate with
//
//	go run ./cmd/midasctl pricing > cmd/midasctl/testdata/pricing.golden
//	go run ./cmd/midasctl table2 > cmd/midasctl/testdata/table2.golden
func TestTablesMatchGolden(t *testing.T) {
	for _, cmd := range []string{"pricing", "table2"} {
		want, err := os.ReadFile("testdata/" + cmd + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run([]string{cmd}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d, stderr %q", cmd, code, stderr.String())
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("%s: output differs from testdata/%s.golden\n--- got\n%s--- want\n%s", cmd, cmd, stdout.Bytes(), want)
		}
	}
}

// TestUsageErrorsExitTwo: an unknown command and a non-positive -sf are
// refused before any work, with exit status 2 and a message on stderr.
func TestUsageErrorsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"bogus"}, `unknown command "bogus"`},
		{[]string{"-sf", "0", "gen"}, "-sf must be positive"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.msg) || stdout.Len() != 0 {
			t.Errorf("%v: stderr %q, stdout %q; want %q on stderr only", tc.args, stderr.String(), stdout.String(), tc.msg)
		}
	}
}
