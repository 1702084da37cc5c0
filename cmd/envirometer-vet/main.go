// Command envirometer-vet is the project's consolidated static-analysis
// gate: it runs the stock `go vet` passes plus the repository's own
// invariant analyzers — lockcheck, ctxcheck, wiretag, colfmt, errcmp,
// and chanbound (see docs/DEVELOPMENT.md) — over the packages matched
// by its arguments and exits non-zero on any diagnostic.
//
// Usage:
//
//	go run ./cmd/envirometer-vet ./...
//
// Flags:
//
//	-novet    skip the stock `go vet` subprocess (project analyzers only)
//	-list     print the project analyzers and exit
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/chanbound"
	"repro/internal/analysis/colfmt"
	"repro/internal/analysis/ctxcheck"
	"repro/internal/analysis/errcmp"
	"repro/internal/analysis/load"
	"repro/internal/analysis/lockcheck"
	"repro/internal/analysis/wiretag"
)

// analyzers is the project suite, in reporting order.
var analyzers = []*analysis.Analyzer{
	chanbound.Analyzer,
	colfmt.Analyzer,
	ctxcheck.Analyzer,
	errcmp.Analyzer,
	lockcheck.Analyzer,
	wiretag.Analyzer,
}

func main() {
	novet := flag.Bool("novet", false, "skip the stock go vet passes")
	list := flag.Bool("list", false, "list the project analyzers and exit")
	flag.Parse()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	failed := false
	if !*novet {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintln(os.Stderr, "envirometer-vet: go vet failed")
			failed = true
		}
	}

	pkgs, err := load.Packages(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "envirometer-vet:", err)
		os.Exit(2)
	}
	type posDiag struct {
		file      string
		line, col int
		msg       string
	}
	var diags []posDiag
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Path:      pkg.Path,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			name := a.Name
			pass.Report = func(d analysis.Diagnostic) {
				p := pkg.Fset.Position(d.Pos)
				diags = append(diags, posDiag{
					file: p.Filename, line: p.Line, col: p.Column,
					msg: fmt.Sprintf("%s: %s", name, d.Message),
				})
			}
			if err := analysis.Run(pass); err != nil {
				fmt.Fprintf(os.Stderr, "envirometer-vet: %s on %s: %v\n", a.Name, pkg.Path, err)
				os.Exit(2)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		if a.col != b.col {
			return a.col < b.col
		}
		return a.msg < b.msg
	})
	for _, d := range diags {
		fmt.Printf("%s:%d:%d: %s\n", d.file, d.line, d.col, d.msg)
	}
	if len(diags) > 0 || failed {
		os.Exit(1)
	}
}
