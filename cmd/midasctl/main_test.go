package main

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
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

// TestCommandTable: every command comes from one table. -h names each
// of them, ablations prints the four ablation tables, and all runs the
// artefact registry in its order, then run-query on Q12. The registry's
// table3, table4 and example31 take most of a minute, so all runs over
// stand-ins that keep the registry's names and order and print their
// name as a title.
func TestCommandTable(t *testing.T) {
	real := experiments.Artefacts
	var stubs []experiments.Artefact
	var stubTitles, names []string
	for _, a := range real {
		title := "stand-in for " + a.Name
		stubs = append(stubs, experiments.Artefact{Name: a.Name, Doc: a.Doc, Run: func(experiments.MREOptions) ([]*experiments.Table, error) {
			return []*experiments.Table{{Title: title}}, nil
		}})
		stubTitles = append(stubTitles, title)
		names = append(names, a.Name)
	}
	names = append(names, "run-query", "scenarios", "gen", "cluster-status", "all")
	// helpCommands is the first word of each line between "commands:"
	// and "flags:" in the usage.
	helpCommands := func(_, stderr string) []string {
		var out []string
		inside := false
		for _, line := range strings.Split(stderr, "\n") {
			switch {
			case line == "commands:":
				inside = true
			case line == "" || line == "flags:":
				inside = false
			case inside:
				out = append(out, strings.Fields(line)[0])
			}
		}
		return out
	}
	// titles is the lines of stdout that begin with one of prefixes.
	titles := func(prefixes ...string) func(stdout, _ string) []string {
		return func(stdout, _ string) []string {
			var out []string
			for _, line := range strings.Split(stdout, "\n") {
				if slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(line, p) }) {
					out = append(out, line)
				}
			}
			return out
		}
	}
	for _, tc := range []struct {
		args     []string
		registry []experiments.Artefact
		// lines picks the output lines compared with want.
		lines func(stdout, stderr string) []string
		want  []string
	}{
		{[]string{"-h"}, real, helpCommands, names},
		{[]string{"ablations"}, real, titles("Ablation"), []string{
			"Ablation: DREAM window growth policy (Q12, 100 MiB).",
			"Ablation: DREAM R²require threshold (Q12, 100 MiB).",
			"Ablation: DREAM window selection (Q12, 100 MiB).",
			"Ablation: monolithic vs operator-level DREAM (Q12, 100 MiB).",
		}},
		{[]string{"all"}, stubs, titles("stand-in", "Running"),
			append(stubTitles, "Running Q12 end to end at SF 0.01 (full relational execution)")},
	} {
		experiments.Artefacts = tc.registry
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		experiments.Artefacts = real
		if code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", tc.args, code, stderr.String())
		}
		if got := tc.lines(stdout.String(), stderr.String()); !slices.Equal(got, tc.want) {
			t.Errorf("%v:\n got %q\nwant %q", tc.args, got, tc.want)
		}
	}
}
