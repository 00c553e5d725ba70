package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGithubAnchor(t *testing.T) {
	for heading, want := range map[string]string{
		"Quick start":                     "quick-start",
		"Serving: `midasd` + `midasload`": "serving-midasd--midasload",
		"Metrics: reading GET /metrics":   "metrics-reading-get-metrics",
		"What's_here":                     "whats_here",
	} {
		if got := githubAnchor(heading); got != want {
			t.Errorf("githubAnchor(%q) = %q, want %q", heading, got, want)
		}
	}
}

func TestCheckFileFindsBreakage(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "other.md", "# Real Heading\ntext\n")
	md := write(t, dir, "doc.md", strings.Join([]string{
		"# Doc",
		"[good file](other.md)",
		"[good anchor](other.md#real-heading)",
		"[self anchor](#doc)",
		"[external](https://example.com/definitely-404)",
		"[missing file](nope.md)",
		"[missing anchor](other.md#not-there)",
		"```",
		"[inside fence](also-nope.md)",
		"```",
		"", //
	}, "\n"))

	probs, err := checkFile(md)
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 2 {
		t.Fatalf("got %d problems, want 2:\n%s", len(probs), strings.Join(probs, "\n"))
	}
	if !strings.Contains(probs[0], "nope.md") {
		t.Errorf("first problem should be the missing file: %s", probs[0])
	}
	if !strings.Contains(probs[1], "#not-there") {
		t.Errorf("second problem should be the missing anchor: %s", probs[1])
	}
}

func TestDuplicateHeadingsDedupe(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "dup.md", "# Same\ntext\n# Same\n")
	md := write(t, dir, "doc.md", "[second](dup.md#same-1)\n[first](dup.md#same)\n")
	probs, err := checkFile(md)
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 0 {
		t.Fatalf("deduped anchors should resolve: %v", probs)
	}
}

// TestRepoRootEscapeSkippedButInsideChecked pins the boundary rule in
// a tree that has a repo marker: a link climbing out of the repo (the
// CI badge form) is skipped, while a broken link inside the repo is
// still reported — including when the checker is invoked with a
// relative path, the way CI runs it.
func TestRepoRootEscapeSkippedButInsideChecked(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "go.mod", "module tmp\n")
	write(t, dir, "doc.md", "[badge](../../actions/workflows/ci.yml/badge.svg)\n[broken](missing.md)\n")

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = os.Chdir(wd) }()

	probs, err := checkFile("doc.md") // relative, as in CI
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 1 || !strings.Contains(probs[0], "missing.md") {
		t.Fatalf("want exactly the in-repo breakage, got %v", probs)
	}
}

// TestFiguresNeedASource pins the figure rule: a performance number is
// fine in a figure source, in a fence, and within two lines of a link
// into a source; anywhere else it is reported, however it is spelled.
func TestFiguresNeedASource(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "go.mod", "module tmp\n")
	write(t, dir, "docs/performance.md", "# Numbers\nthe sweep takes 145 µs\n")
	write(t, dir, "CHANGES.md", "PR 1: 9.9k rps\n")
	md := write(t, dir, "docs/guide.md", strings.Join([]string{
		"# Guide",
		"the sweep takes 145 µs at 2,048 plans", // line 2: two lines above the link
		"",
		"(see [the grid](performance.md#numbers))",
		"",
		"and 5.2 ms at 18,432", // line 6: two lines below it
		"",
		"a round trip is 8.3k rps here", // line 8: three lines below
		"",
		"",
		"**7 allocs/op** ([history](../CHANGES.md))", // same line
		"",
		"",
		"",
		"it was 291 ms once ([guide](guide.md#guide))", // a link, but not into a source
		"```",
		"p50 0.03 ms",
		"```",
		"timeout_ms is 500, 30 s, 12 plans, ms alone", // not figures
		"",
	}, "\n"))
	probs, err := checkFile(md)
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 2 || !strings.Contains(probs[0], `guide.md:8: figure "8.3k rps"`) ||
		!strings.Contains(probs[1], `guide.md:15: figure "291 ms"`) {
		t.Fatalf("want exactly lines 8 and 15 reported, got:\n%s", strings.Join(probs, "\n"))
	}
	for _, src := range []string{"docs/performance.md", "CHANGES.md"} {
		if probs, err := checkFile(filepath.Join(dir, src)); err != nil || len(probs) != 0 {
			t.Fatalf("%s owns its figures: %v %v", src, probs, err)
		}
	}
}

// TestHeadingsNameNoPR pins the history rule: outside CHANGES.md a
// heading may not name a PR; prose, fences and CHANGES.md may.
func TestHeadingsNameNoPR(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "go.mod", "module tmp\n")
	changes := write(t, dir, "CHANGES.md", "# Changes\n## PR 23: the matrix\n")
	md := write(t, dir, "docs/guide.md", strings.Join([]string{
		"# Guide",
		"### PR 23: one pointer-free matrix", // line 2
		"Since PR 25 the scratch is pooled.",
		"## The sweep before PR 9", // line 4
		"## Sprint planning, APR 2",
		"```",
		"## PR 1 in a fence",
		"```",
		"",
	}, "\n"))
	probs, err := checkFile(md)
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 2 || !strings.Contains(probs[0], "guide.md:2: heading names a PR") ||
		!strings.Contains(probs[1], "guide.md:4: heading names a PR") {
		t.Fatalf("want exactly lines 2 and 4 reported, got:\n%s", strings.Join(probs, "\n"))
	}
	if probs, err := checkFile(changes); err != nil || len(probs) != 0 {
		t.Fatalf("CHANGES.md owns the history: %v %v", probs, err)
	}
}

func TestCollectWalksDirectories(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "a.md", "# A\n")
	write(t, dir, "sub/b.md", "# B\n")
	write(t, dir, "sub/ignore.txt", "not markdown")
	files, err := collect([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("collected %v, want 2 markdown files", files)
	}
}

// TestRepoDocsAreClean runs the checker over the repository's actual
// documentation — the same invocation CI performs.
func TestRepoDocsAreClean(t *testing.T) {
	root := "../.."
	var all []string
	for _, target := range []string{"README.md", "DESIGN.md", "docs"} {
		path := filepath.Join(root, target)
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("doc target missing: %v", err)
		}
		files, err := collect([]string{path})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, files...)
	}
	for _, f := range all {
		probs, err := checkFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range probs {
			t.Error(p)
		}
	}
}
