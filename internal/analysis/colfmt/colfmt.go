// Package colfmt is an exhaustiveness checker for the columnar block
// format: every format constant of the colblock package (a package-level
// constant whose name ends in "Magic" or "Version") must be referenced
// on both sides of the codec — written by a function reachable from
// Encode, and validated by a function reachable from a decode entry
// (OpenFile, OpenBytes, or Verify). The package must also pair the two
// sides in a native fuzzer: a FuzzColBlockDecode function that builds
// its seed corpus with Encode and drives the decoder through Verify or
// OpenBytes, so any constant or layout change that breaks the
// round-trip fails CI rather than surfacing as a corrupt checkpoint in
// production. A half-wired constant — stamped by the encoder but never
// checked by the reader, or vice versa — is exactly how silent format
// drift starts; this pass turns it into one diagnostic per gap.
package colfmt

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the colfmt pass.
var Analyzer = &analysis.Analyzer{
	Name:      "colfmt",
	Doc:       "check colblock format constants are encoded, decoded, and fuzz-paired exhaustively",
	Directive: "colfmt:allow",
	Run:       run,
}

// funcFacts records, for one function declaration, the package
// constants it references and the same-package functions it calls.
type funcFacts struct {
	decl   *ast.FuncDecl
	consts map[*types.Const]bool
	calls  map[*types.Func]bool
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() != "colblock" {
		return nil
	}

	// Format constants: package-level, named *Magic or *Version.
	var formats []*types.Const
	for _, name := range pass.Pkg.Scope().Names() {
		c, ok := pass.Pkg.Scope().Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		if strings.HasSuffix(name, "Magic") || strings.HasSuffix(name, "Version") {
			formats = append(formats, c)
		}
	}
	if len(formats) == 0 {
		return nil
	}

	facts := collectFacts(pass)
	encSide := reachableFrom(pass, facts, "Encode")
	decSide := reachableFrom(pass, facts, "OpenFile", "OpenBytes", "Verify")

	refIn := func(set map[*types.Func]bool, c *types.Const) bool {
		for _, ff := range facts {
			if fn := declFunc(pass, ff.decl); fn != nil && set[fn] && ff.consts[c] {
				return true
			}
		}
		return false
	}

	for _, c := range formats {
		enc, dec := refIn(encSide, c), refIn(decSide, c)
		if enc && dec || pass.Suppressed(c.Pos()) {
			continue
		}
		if !enc {
			pass.Reportf(c.Pos(), "colblock format constant %s: not written on the Encode path", c.Name())
		}
		if !dec {
			pass.Reportf(c.Pos(), "colblock format constant %s: not validated on the decode path (OpenFile/OpenBytes/Verify)", c.Name())
		}
	}

	// The fuzz pairing: FuzzColBlockDecode must exist, seed through
	// Encode, and drive the decoder.
	var fuzz *funcFacts
	for _, ff := range facts {
		if ff.decl.Name.Name == "FuzzColBlockDecode" && ff.decl.Recv == nil {
			fuzz = ff
			break
		}
	}
	// A directive on the first format constant excuses the pairing.
	anchor := formats[0].Pos()
	report := func(pos token.Pos, msg string) {
		if !pass.Suppressed(anchor) {
			pass.Reportf(pos, "%s", msg)
		}
	}
	if fuzz == nil {
		report(anchor, "colblock format: no FuzzColBlockDecode fuzzer pairs the encode and decode paths")
		return nil
	}
	callsNamed := func(name string) bool {
		for fn := range fuzz.calls {
			if fn.Name() == name {
				return true
			}
		}
		return false
	}
	if !callsNamed("Encode") {
		report(fuzz.decl.Pos(), "FuzzColBlockDecode: seed corpus is not built with Encode, so seeds drift from the writer")
	}
	if !callsNamed("Verify") && !callsNamed("OpenBytes") {
		report(fuzz.decl.Pos(), "FuzzColBlockDecode: never drives the decoder (call Verify or OpenBytes)")
	}
	return nil
}

// collectFacts records per-function constant uses and same-package call
// edges, including functions called indirectly through closures the
// function body creates.
func collectFacts(pass *analysis.Pass) []*funcFacts {
	var out []*funcFacts
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ff := &funcFacts{
				decl:   fn,
				consts: map[*types.Const]bool{},
				calls:  map[*types.Func]bool{},
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.Ident:
					if obj, ok := pass.TypesInfo.Uses[v].(*types.Const); ok && obj.Pkg() == pass.Pkg {
						ff.consts[obj] = true
					}
				case *ast.CallExpr:
					if callee := analysis.FuncOf(pass.TypesInfo, v); callee != nil && callee.Pkg() == pass.Pkg {
						ff.calls[callee] = true
					}
				}
				return true
			})
			out = append(out, ff)
		}
	}
	return out
}

// declFunc resolves a declaration to its types.Func.
func declFunc(pass *analysis.Pass, decl *ast.FuncDecl) *types.Func {
	fn, _ := pass.TypesInfo.Defs[decl.Name].(*types.Func)
	return fn
}

// reachableFrom returns the same-package functions reachable from any
// package-level function with one of the given names.
func reachableFrom(pass *analysis.Pass, facts []*funcFacts, roots ...string) map[*types.Func]bool {
	rootSet := map[string]bool{}
	for _, r := range roots {
		rootSet[r] = true
	}
	set := map[*types.Func]bool{}
	var queue []*types.Func
	byObj := map[*types.Func]*funcFacts{}
	for _, ff := range facts {
		obj := declFunc(pass, ff.decl)
		if obj == nil {
			continue
		}
		byObj[obj] = ff
		if ff.decl.Recv == nil && rootSet[ff.decl.Name.Name] {
			set[obj] = true
			queue = append(queue, obj)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		ff := byObj[fn]
		if ff == nil {
			continue
		}
		for callee := range ff.calls {
			if !set[callee] {
				set[callee] = true
				queue = append(queue, callee)
			}
		}
	}
	return set
}
