// Command linkcheck validates the repository's markdown cross-links:
// every relative link must point at an existing file (or directory)
// and every fragment must match a heading anchor in the target
// document, using GitHub's anchor derivation. External http(s) and
// mailto links are skipped — the gate is deterministic and runs
// offline, so CI cannot flake on someone else's web server.
//
// It also holds published numbers to their source: outside the documents
// that own measurements (docs/performance.md, bench/README.md,
// CHANGES.md), a performance figure — "8.3k rps", "291 ms", "7 allocs" —
// must sit within two lines of a link into one of them, so a reader can
// check it and the next re-measurement knows what else to update.
//
// And it keeps the docs about the system as it is: outside CHANGES.md,
// no heading names a PR ("### PR 23: ..."); per-PR history lives there.
//
// Usage:
//
//	linkcheck README.md DESIGN.md docs/
//
// Directories are walked for *.md files. Exit status 1 lists every
// broken link, unsourced figure and PR heading as file:line: message.
package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"unicode"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: linkcheck <file.md|dir>...")
		os.Exit(2)
	}
	files, err := collect(args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "linkcheck: %v\n", err)
		os.Exit(2)
	}
	var broken []string
	for _, f := range files {
		probs, err := checkFile(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "linkcheck: %v\n", err)
			os.Exit(2)
		}
		broken = append(broken, probs...)
	}
	if len(broken) > 0 {
		for _, b := range broken {
			fmt.Println(b)
		}
		fmt.Printf("linkcheck: %d problem(s) in %d file(s)\n", len(broken), len(files))
		os.Exit(1)
	}
	fmt.Printf("linkcheck: %d file(s) clean\n", len(files))
}

// collect expands the arguments into a list of markdown files.
func collect(args []string) ([]string, error) {
	var files []string
	for _, a := range args {
		info, err := os.Stat(a)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			files = append(files, a)
			continue
		}
		err = filepath.WalkDir(a, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(strings.ToLower(d.Name()), ".md") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return files, nil
}

// linkRE matches inline links and images: [text](target). Reference
// definitions and autolinks are out of scope — the repo's docs use
// inline style.
var linkRE = regexp.MustCompile(`!?\[[^\]]*\]\(([^()\s]+)(?:\s+"[^"]*")?\)`)

// figureRE matches a published performance figure: a number followed by
// a throughput, latency or allocation unit.
var figureRE = regexp.MustCompile(`\d[\d,.]*[\s\x{00A0}\x{202F}]?k?[\s\x{00A0}\x{202F}]?(?:rps|µs|ms|allocs)\b`)

// figureSources are the documents that own measured numbers, relative
// to the repository root. Anywhere else a figure rots unnoticed, so it
// must sit within figureReach lines of a link into one of these.
var figureSources = []string{"docs/performance.md", "bench/README.md", "CHANGES.md"}

const figureReach = 2

// prHeadingRE matches a heading that names a PR.
var prHeadingRE = regexp.MustCompile(`^#+ .*\bPR [0-9]`)

// repoPath returns path relative to the repository root, slash-separated
// ("" if it cannot be resolved).
func repoPath(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return ""
	}
	rel, err := filepath.Rel(repoRoot(filepath.Dir(abs)), abs)
	if err != nil {
		return ""
	}
	return filepath.ToSlash(rel)
}

// isFigureSource reports whether path is one of figureSources.
func isFigureSource(path string) bool {
	return slices.Contains(figureSources, repoPath(path))
}

// checkFile validates every link in one markdown file, that every
// performance figure in it is near a link into a figure source, and,
// outside CHANGES.md, that no heading names a PR.
func checkFile(path string) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var problems []string
	lines := strings.Split(string(raw), "\n")
	sourced := make([]bool, len(lines))   // the line links into a figure source
	figures := make([]string, len(lines)) // the line's first figure, if it needs one
	ownsFigures := isFigureSource(path)
	ownsHistory := repoPath(path) == "CHANGES.md"
	inFence := false
	for i, line := range lines {
		// Links and numbers inside fenced code blocks are illustrative,
		// not navigation or claims; skip them.
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		if !ownsHistory && prHeadingRE.MatchString(line) {
			problems = append(problems, fmt.Sprintf("%s:%d: heading names a PR; history belongs in CHANGES.md", path, i+1))
		}
		for _, m := range linkRE.FindAllStringSubmatch(line, -1) {
			if msg := checkTarget(path, m[1]); msg != "" {
				problems = append(problems, fmt.Sprintf("%s:%d: %s", path, i+1, msg))
			}
			file, _, _ := strings.Cut(m[1], "#")
			if file != "" && isFigureSource(filepath.Join(filepath.Dir(path), file)) {
				sourced[i] = true
			}
		}
		if !ownsFigures {
			figures[i] = figureRE.FindString(line)
		}
	}
	for i, fig := range figures {
		if fig != "" && !slices.Contains(sourced[max(0, i-figureReach):min(len(lines), i+figureReach+1)], true) {
			problems = append(problems, fmt.Sprintf("%s:%d: figure %q is not within %d lines of a link into %s",
				path, i+1, fig, figureReach, strings.Join(figureSources, ", ")))
		}
	}
	return problems, nil
}

// checkTarget validates one link target relative to the file that
// holds it; "" means the link is fine.
func checkTarget(from, target string) string {
	switch {
	case strings.HasPrefix(target, "http://"),
		strings.HasPrefix(target, "https://"),
		strings.HasPrefix(target, "mailto:"):
		return "" // external: out of scope by design
	}
	file, frag, _ := strings.Cut(target, "#")
	resolved := from
	if file != "" {
		resolved = filepath.Join(filepath.Dir(from), file)
		// Paths that climb out of the repository are GitHub web-app
		// URLs (the CI badge's ../../actions/... form), not repo files
		// — external, so out of scope like any http link. Both sides
		// must be absolute or Rel errors and the gate goes vacuous.
		if root := repoRoot(filepath.Dir(from)); root != "" {
			abs, err := filepath.Abs(resolved)
			if err == nil {
				if rel, err := filepath.Rel(root, abs); err == nil && strings.HasPrefix(rel, "..") {
					return ""
				}
			}
		}
		info, err := os.Stat(resolved)
		if err != nil {
			return fmt.Sprintf("broken link %q: %s does not exist", target, resolved)
		}
		if info.IsDir() || frag == "" {
			return ""
		}
	}
	if frag == "" {
		return ""
	}
	if !strings.HasSuffix(strings.ToLower(resolved), ".md") {
		return "" // anchors into non-markdown files are not checkable
	}
	ok, err := hasAnchor(resolved, frag)
	if err != nil {
		return fmt.Sprintf("broken link %q: %v", target, err)
	}
	if !ok {
		return fmt.Sprintf("broken link %q: no heading anchors to #%s in %s", target, frag, resolved)
	}
	return ""
}

// repoRoot ascends from dir to the enclosing repository root (the
// first directory holding .git or go.mod); "" when there is none.
func repoRoot(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return ""
	}
	for {
		for _, marker := range []string{".git", "go.mod"} {
			if _, err := os.Stat(filepath.Join(abs, marker)); err == nil {
				return abs
			}
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return ""
		}
		abs = parent
	}
}

// hasAnchor reports whether the markdown file has a heading whose
// GitHub-derived anchor equals frag.
func hasAnchor(path, frag string) (bool, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	seen := map[string]int{}
	inFence := false
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(line, "#") {
			continue
		}
		heading := strings.TrimLeft(line, "#")
		if heading == line || (heading != "" && heading[0] != ' ' && heading[0] != '\t') {
			continue // not a heading (e.g. "#!/bin/sh" or no space after #)
		}
		anchor := githubAnchor(strings.TrimSpace(heading))
		// GitHub de-duplicates repeated headings with -1, -2, …
		if n := seen[anchor]; n > 0 {
			seen[anchor]++
			anchor = fmt.Sprintf("%s-%d", anchor, n)
		} else {
			seen[anchor] = 1
		}
		if anchor == frag {
			return true, nil
		}
	}
	return false, nil
}

// githubAnchor derives the anchor id GitHub assigns a heading:
// lowercase, markup and punctuation stripped, spaces to hyphens.
func githubAnchor(heading string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_', r == '-':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		default:
			// Punctuation and symbols (including `, *, :, /, ., →) are
			// dropped; non-ASCII letters and digits are kept, matching
			// GitHub's derivation.
			if r > 127 && (unicode.IsLetter(r) || unicode.IsNumber(r)) {
				b.WriteRune(r)
			}
		}
	}
	return b.String()
}
