// Package ctxcheck enforces context discipline in library code:
//
//  1. context.Background() and context.TODO() must not be called in
//     internal/... non-test code. A library path that manufactures its
//     own root context swallows the caller's cancellation and deadline —
//     exactly how PR 5/6 request paths lost cancellation through the
//     cluster router. Roots belong in cmd/, tests, and main-adjacent
//     wiring (which this analyzer does not visit).
//  2. Exported functions and methods in internal/... whose bodies
//     directly block — a channel send/receive, a select without a
//     default, time.Sleep, or sync.WaitGroup.Wait — must accept a
//     context.Context so callers can bound the wait.
//
// Audited exceptions carry a "//ctxcheck:allow <reason>" directive on
// the same line (rule 1) or on the function declaration's first line
// (rule 2). Lifecycle owners — a registry spawning its own workers
// whose lifetime is bound to Close, not to any caller — are the
// expected rule-1 exceptions.
package ctxcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the ctxcheck pass.
var Analyzer = &analysis.Analyzer{
	Name:      "ctxcheck",
	Doc:       "flag context.Background in library paths and exported blocking APIs without a context parameter",
	Directive: "ctxcheck:allow",
	Run:       run,
}

func run(pass *analysis.Pass) error {
	if !strings.Contains(pass.Path, "internal/") {
		// Only library code is constrained; cmd/, examples, and the root
		// facade own their roots.
		return nil
	}
	if strings.Contains(pass.Path, "internal/analysis") && !strings.Contains(pass.Path, "testdata") {
		// The analyzer suite itself is tooling, not a serving path, and
		// its sources embed fixture shapes.
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.CallExpr:
				checkRootContext(pass, v)
			case *ast.FuncDecl:
				checkExportedBlocking(pass, v)
			}
			return true
		})
	}
	return nil
}

// checkRootContext flags context.Background()/context.TODO() calls.
func checkRootContext(pass *analysis.Pass, call *ast.CallExpr) {
	path := analysis.CalleePath(pass.TypesInfo, call)
	if path != "context.Background" && path != "context.TODO" {
		return
	}
	if pass.Suppressed(call.Pos()) {
		return
	}
	pass.Reportf(call.Pos(),
		"%s in library code swallows the caller's cancellation; thread a ctx parameter or annotate //ctxcheck:allow <reason>",
		path[len("context."):]+"()")
}

// checkExportedBlocking flags exported functions that block without
// accepting a context.
func checkExportedBlocking(pass *analysis.Pass, fn *ast.FuncDecl) {
	if fn.Body == nil || !fn.Name.IsExported() {
		return
	}
	if fn.Name.Name == "Close" {
		// The io.Closer contract has no room for a context; Close is
		// expected to block until teardown completes.
		return
	}
	if fn.Recv != nil {
		// Methods of unexported types are not part of the package API
		// unless they implement an exported interface; hold them to the
		// same rule only when the receiver type is exported.
		if name := receiverTypeName(fn); name != "" && !ast.IsExported(name) {
			return
		}
	}
	if hasContextParam(pass, fn) {
		return
	}
	blockPos, what := firstBlockingOp(pass, fn.Body)
	if blockPos == token.NoPos {
		return
	}
	if pass.Suppressed(fn.Pos()) || pass.Suppressed(blockPos) {
		return
	}
	pass.Reportf(fn.Pos(),
		"exported %s blocks (%s) but takes no context.Context; callers cannot bound the wait (annotate //ctxcheck:allow <reason> if the wait is bounded elsewhere)",
		fn.Name.Name, what)
}

func receiverTypeName(fn *ast.FuncDecl) string {
	if len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch v := t.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.IndexExpr: // generic receiver
		if id, ok := v.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

func hasContextParam(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	for _, field := range fn.Type.Params.List {
		if analysis.TypeName(pass.TypesInfo.TypeOf(field.Type)) == "context.Context" {
			return true
		}
	}
	return false
}

// firstBlockingOp finds the first directly blocking operation in body,
// not descending into function literals (a closure blocks whoever runs
// it, typically a goroutine with its own lifecycle).
func firstBlockingOp(pass *analysis.Pass, body ast.Node) (pos token.Pos, what string) {
	found := func(p token.Pos, w string) {
		if pos == token.NoPos {
			pos, what = p, w
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if pos != token.NoPos {
			return false
		}
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			found(v.Arrow, "channel send")
			return false
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				found(v.OpPos, "channel receive")
				return false
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(v.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found(v.For, "range over channel")
					return false
				}
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range v.Body.List {
				if c.(*ast.CommClause).Comm == nil {
					hasDefault = true
				}
			}
			if hasDefault {
				// The communication itself is a non-blocking attempt;
				// only the clause bodies can block.
				for _, c := range v.Body.List {
					for _, s := range c.(*ast.CommClause).Body {
						if p, w := firstBlockingOp(pass, s); p != token.NoPos {
							found(p, w)
							break
						}
					}
				}
				return false
			}
			found(v.Select, "select without default")
			return false
		case *ast.CallExpr:
			switch analysis.CalleePath(pass.TypesInfo, v) {
			case "time.Sleep":
				found(v.Pos(), "time.Sleep")
			case "sync.WaitGroup.Wait":
				found(v.Pos(), "sync.WaitGroup.Wait")
			}
		}
		return true
	})
	return pos, what
}
