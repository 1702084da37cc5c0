// Package chanbound enforces queue-boundedness discipline: every
// make(chan T) in non-test library code must either be buffered with a
// capacity that is named — a constant or a config/parameter expression,
// so the bound is reviewable and tunable — or carry a
//
//	//bounded: <why this channel cannot grow or block unboundedly>
//
// justification on the same line or the line above. Unbuffered channels
// and magic-number capacities are how slow consumers stalled producers
// before PR 6's Feed introduced the drop-oldest queue; the directive
// forces every remaining rendezvous or fixed-size channel to say what
// bounds it.
package chanbound

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the chanbound pass.
var Analyzer = &analysis.Analyzer{
	Name:      "chanbound",
	Doc:       "require named capacities or //bounded: justifications on library channels",
	Directive: "bounded:",
	Run:       run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || fun.Name != "make" {
				return true
			}
			if b, ok := pass.TypesInfo.Uses[fun].(*types.Builtin); !ok || b.Name() != "make" {
				return true
			}
			if len(call.Args) == 0 {
				return true
			}
			if _, ok := pass.TypesInfo.TypeOf(call.Args[0]).Underlying().(*types.Chan); !ok {
				return true
			}
			named := len(call.Args) >= 2 && namedCapacity(pass, call.Args[1])
			if named || pass.Suppressed(call.Pos()) {
				return true
			}
			if len(call.Args) < 2 {
				pass.Reportf(call.Pos(),
					"unbuffered channel in library code; give it a named capacity or justify the rendezvous with //bounded: <reason>")
				return true
			}
			pass.Reportf(call.Args[1].Pos(),
				"channel capacity is a magic number; name it (constant or config field) or justify it with //bounded: <reason>")
			return true
		})
	}
	return nil
}

// namedCapacity reports whether the capacity expression is named — an
// identifier or selector (constant, variable, field, parameter) or an
// arithmetic expression over named values. A bare literal is not.
func namedCapacity(pass *analysis.Pass, expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.BasicLit:
		return false
	case *ast.Ident, *ast.SelectorExpr, *ast.CallExpr, *ast.IndexExpr:
		return true
	case *ast.BinaryExpr:
		return namedCapacity(pass, e.X) || namedCapacity(pass, e.Y)
	case *ast.UnaryExpr:
		return namedCapacity(pass, e.X)
	}
	return false
}
