package main

import (
	"fmt"
	"os/exec"
	"path"
	"sort"
	"strings"

	"ppatc/internal/analysis"
)

// gitChangedFiles lists the paths git reports as changed relative to
// base (committed, staged, and working-tree edits alike), as
// repo-root-relative slash paths — the same shape diagnostics use.
// Deleted files are left out: a package removed since base has nothing
// left to load.
func gitChangedFiles(dir, base string) ([]string, error) {
	cmd := exec.Command("git", "diff", "--name-only", "--diff-filter=d", base, "--")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			return nil, fmt.Errorf("git diff --name-only --diff-filter=d %s: %s", base, strings.TrimSpace(string(ee.Stderr)))
		}
		return nil, fmt.Errorf("git diff --name-only --diff-filter=d %s: %v", base, err)
	}
	var files []string
	for _, line := range strings.Split(string(out), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			files = append(files, line)
		}
	}
	return files, nil
}

// changedDirPatterns reduces a changed-file list to the go-list
// patterns covering the packages those files live in: one ./dir per
// directory holding a changed .go file, sorted and deduplicated.
// Fixture sources under testdata are not loadable packages and are
// dropped.
func changedDirPatterns(files []string) []string {
	seen := map[string]bool{}
	for _, f := range files {
		if !strings.HasSuffix(f, ".go") {
			continue
		}
		d := path.Dir(f)
		if d == "testdata" || strings.HasPrefix(d, "testdata/") || strings.Contains(d, "/testdata") {
			continue
		}
		if d == "." {
			seen["."] = true
		} else {
			seen["./"+d] = true
		}
	}
	patterns := make([]string, 0, len(seen))
	for p := range seen {
		patterns = append(patterns, p)
	}
	sort.Strings(patterns)
	return patterns
}

// githubAnnotation renders one diagnostic as a GitHub Actions workflow
// command, so findings surface inline on the pull request diff.
func githubAnnotation(d analysis.Diagnostic) string {
	return fmt.Sprintf("::error file=%s,line=%d,col=%d,title=ppatcvet(%s)::%s",
		githubEscapeProperty(d.File), d.Line, d.Col,
		githubEscapeProperty(d.Analyzer), githubEscapeMessage(d.Message))
}

// githubEscapeMessage escapes the data portion of a workflow command:
// %, CR, and LF would otherwise terminate or corrupt the command.
func githubEscapeMessage(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// githubEscapeProperty escapes a property value, which additionally
// reserves ':' and ','.
func githubEscapeProperty(s string) string {
	s = githubEscapeMessage(s)
	s = strings.ReplaceAll(s, ":", "%3A")
	s = strings.ReplaceAll(s, ",", "%2C")
	return s
}
