// Package analysis is a minimal, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis contract: an Analyzer inspects one
// type-checked package at a time and reports position-anchored
// diagnostics. The build environment for this repository is offline and
// vendors nothing, so the project's invariant checkers (lockcheck,
// ctxcheck, wiretag, errcmp, chanbound — see docs/DEVELOPMENT.md) run
// on this framework instead; the API shape is kept deliberately close
// to x/tools so the analyzers port mechanically if the dependency ever
// lands.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics ("lockcheck").
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Directive is the comment prefix that marks an audited exception to
	// this analyzer ("lockcheck:allow", "bounded:"); see Pass.Suppressed.
	Directive string
	// Run inspects one package and reports findings via pass.Report.
	// Drivers call the package-level Run, which also audits directives.
	Run func(pass *Pass) error
}

// Run applies pass.Analyzer to the package and then reports every
// justified directive of the analyzer that suppressed no finding: the
// code it excused has moved or gone, and a stale exception would
// silently excuse whatever lands on its line next.
func Run(pass *Pass) error {
	if err := pass.Analyzer.Run(pass); err != nil {
		return err
	}
	for _, ds := range pass.fileDirectives() {
		for _, d := range ds {
			if pass.justified(d) && !d.used {
				pass.Reportf(d.pos, "unused directive: //%s suppresses no %s finding; delete it", pass.Analyzer.Directive, pass.Analyzer.Name)
			}
		}
	}
	return nil
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	// Path is the package's import path (or directory for testdata
	// packages loaded outside the module).
	Path string
	Fset *token.FileSet
	// Files is the package syntax, including in-package _test.go files.
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report records one diagnostic. The driver deduplicates and sorts.
	Report func(Diagnostic)

	directives map[string][]*directive // file name -> line directives, lazily built
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Category string // analyzer name; filled by the driver if empty
	Message  string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// directive is one "//prefix reason" comment.
type directive struct {
	pos  token.Pos
	line int
	text string // comment text after "//", e.g. "lockcheck:allow audited in review"
	used bool   // it suppressed a finding of this pass
}

// Suppressed reports whether the analyzer's directive (for example
// "lockcheck:allow" or "bounded:") appears on the same line as pos or
// on the line immediately above it. The directive must carry a
// non-empty justification after the prefix — a bare "//lockcheck:allow"
// does not suppress, so every audited exception is forced to say why.
// Directives are written without a space after "//". Analyzers ask only
// about a finding they are about to report, so that Run can tell which
// directives still excuse something.
func (p *Pass) Suppressed(pos token.Pos) bool {
	position := p.Fset.Position(pos)
	for _, d := range p.fileDirectives()[position.Filename] {
		if (d.line == position.Line || d.line == position.Line-1) && p.justified(d) {
			d.used = true
			return true
		}
	}
	return false
}

// justified reports whether d is this analyzer's directive with a
// non-empty reason.
func (p *Pass) justified(d *directive) bool {
	reason, ok := strings.CutPrefix(d.text, p.Analyzer.Directive)
	return ok && strings.TrimSpace(reason) != ""
}

func (p *Pass) fileDirectives() map[string][]*directive {
	if p.directives == nil {
		p.directives = map[string][]*directive{}
		for _, f := range p.Files {
			fname := p.Fset.Position(f.Pos()).Filename
			p.directives[fname] = fileDirectives(p.Fset, f)
		}
	}
	return p.directives
}

// fileDirectives extracts "//word:..." line comments from f. Ordinary
// prose comments never qualify because directives hug the slashes (no
// space after "//") and their first word ends in a colon.
func fileDirectives(fset *token.FileSet, f *ast.File) []*directive {
	var out []*directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//")
			if !ok {
				continue // block comment
			}
			if strings.HasPrefix(text, " ") || strings.HasPrefix(text, "\t") {
				continue
			}
			word, _, ok := strings.Cut(text, " ")
			if !ok {
				word = text
			}
			if !strings.Contains(word, ":") {
				continue
			}
			out = append(out, &directive{
				pos:  c.Pos(),
				line: fset.Position(c.Pos()).Line,
				text: text,
			})
		}
	}
	return out
}

// IsTestFile reports whether the file containing pos is a _test.go
// file. Several analyzers relax their rules for test code.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// TypeName returns the named-type path "pkgpath.Name" for t after
// unwrapping pointers and aliases, or "" when t has no name.
func TypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// FuncOf resolves the called function object of a call expression, or
// nil for dynamic calls, conversions, and builtins.
func FuncOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// CalleePath returns "pkgpath.FuncName" for static calls to top-level
// functions ("net.Dial") or "pkgpath.Recv.Method" for method calls
// ("os.File.Write", receiver pointer stripped), or "".
func CalleePath(info *types.Info, call *ast.CallExpr) string {
	fn := FuncOf(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		rt := TypeName(recv.Type())
		if rt == "" {
			// Interface methods on unnamed types; fall back to pkg.Method.
			return fn.Pkg().Path() + "." + fn.Name()
		}
		return rt + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}
