package main

import (
	"flag"
	"io"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// flagRowRE matches a row of one of docs/operations.md's flag tables:
// the first cell is the flag in backticks.
var flagRowRE = regexp.MustCompile("^\\| `-([a-z-]+)` \\|")

// TestFlagsMatchRunbook holds the runbook to the binary: the flags
// midasd defines are exactly the rows of operations.md's flag tables
// (the tables headed "| Flag |"), so adding, renaming or removing a
// flag without the runbook — or the reverse — fails here and not in an
// operator's unit file.
func TestFlagsMatchRunbook(t *testing.T) {
	var defined []string
	fs := newFlagSet(new(options))
	fs.VisitAll(func(f *flag.Flag) { defined = append(defined, f.Name) })
	// A removed flag in a unit file must stop the boot ("flag provided but
	// not defined"), not be ignored.
	fs.Init("midasd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if err := fs.Parse([]string{"-wal-group-commit"}); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("-wal-group-commit: %v, want the boot refused", err)
	}

	raw, err := os.ReadFile("../../docs/operations.md")
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	inFlagTable := false
	for _, line := range strings.Split(string(raw), "\n") {
		switch {
		case strings.HasPrefix(line, "| Flag |"):
			inFlagTable = true
		case !strings.HasPrefix(line, "|"):
			inFlagTable = false
		case inFlagTable:
			if m := flagRowRE.FindStringSubmatch(line); m != nil {
				documented = append(documented, m[1])
			}
		}
	}
	sort.Strings(documented) // VisitAll is already sorted
	if got, want := strings.Join(documented, " "), strings.Join(defined, " "); got != want {
		t.Fatalf("docs/operations.md's flag tables and midasd's flags differ:\ndocumented: %s\ndefined:    %s", got, want)
	}
}
