// Package analyzertest runs an analyzer over a fixture package and
// checks its diagnostics against golden "// want" comments, mirroring
// golang.org/x/tools/go/analysis/analysistest. A fixture line that must
// produce diagnostics carries a comment of the form
//
//	ch <- v // want `send on ch while .* is held`
//
// where each backquoted (or double-quoted) string is a regular
// expression that must match the message of exactly one diagnostic
// reported on that line. Diagnostics without a matching want, and wants
// without a matching diagnostic, fail the test. A diagnostic reported
// on a directive comment, whose text would swallow a trailing want,
// takes its want in a block comment before it:
//
//	/* want `unused directive` */ //lockcheck:allow nothing blocks here any more
package analyzertest

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// wantRe extracts the expectation strings of one want comment.
var wantRe = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

// Run loads the fixture package in dir, applies a, and compares
// diagnostics against the fixture's want comments. It returns the
// diagnostics so callers can make additional assertions.
func Run(t *testing.T, a *analysis.Analyzer, dir string) []analysis.Diagnostic {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Analyzers gate on path shape ("internal/..."), so hand them the
	// absolute fixture path.
	pkg, err := load.Dir(abs)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Path:      pkg.Path,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := analysis.Run(pass); err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}

	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if block, ok := strings.CutPrefix(c.Text, "/*"); ok {
					text = strings.TrimSuffix(block, "*/")
				}
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				for _, m := range wantRe.FindAllStringSubmatch(text[len("want "):], -1) {
					expr := m[1]
					if expr == "" {
						expr = m[2]
					}
					re, err := regexp.Compile(expr)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, expr, err)
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}

	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		matched := false
		for i, re := range wants[k] {
			if re.MatchString(d.Message) {
				wants[k] = append(wants[k][:i], wants[k][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", shortPos(pos), d.Message)
		}
	}
	var leftovers []string
	for k, res := range wants {
		for _, re := range res {
			leftovers = append(leftovers,
				fmt.Sprintf("%s:%d: no diagnostic matching %q", k.file, k.line, re))
		}
	}
	sort.Strings(leftovers)
	for _, l := range leftovers {
		t.Error(l)
	}
	return diags
}

func shortPos(pos token.Position) string {
	return fmt.Sprintf("%s:%d:%d", pos.Filename, pos.Line, pos.Column)
}
