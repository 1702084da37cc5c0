// Package errcmp enforces the project's error-taxonomy discipline:
// sentinel errors (package-level variables of type error, such as
// query.ErrNoCover, wire.ErrMalformed, or io.EOF) must be matched with
// errors.Is, never with == or != — the facade and the cluster router
// both wrap sentinels with fmt.Errorf("...: %w", ...), so an identity
// comparison silently stops matching the moment a wrapping layer is
// added. For the same reason, passing a sentinel to fmt.Errorf through
// a non-%w verb strips it from the Is chain and is flagged too.
//
// The third rule guards the wire: a failure that crossed it carries a
// code (wire.ErrorResponse.Code, wire.BatchQueryItem.Code) precisely so
// that nothing has to read its text, so strings.Contains / HasPrefix /
// HasSuffix over an ErrorResponse's Msg or a BatchQueryItem's Err — a
// peer's log text steering control flow — is flagged. The types are
// recognized by name, so the rule follows them into fixtures.
//
// Audited exceptions carry "//errcmp:allow <reason>".
package errcmp

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the errcmp pass.
var Analyzer = &analysis.Analyzer{
	Name:      "errcmp",
	Doc:       "flag ==/!= comparisons of sentinel errors, fmt.Errorf sentinel wrapping without %w, and substring matching on wire error text",
	Directive: "errcmp:allow",
	Run:       run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.BinaryExpr:
				checkComparison(pass, v)
			case *ast.CallExpr:
				checkErrorf(pass, v)
				checkErrorText(pass, v)
			}
			return true
		})
	}
	return nil
}

// sentinelOf returns the object and name of a package-level error
// variable used by expr, or nil.
func sentinelOf(pass *analysis.Pass, expr ast.Expr) *types.Var {
	var obj types.Object
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[e.Sel]
	default:
		return nil
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return nil
	}
	// Package-level (declared in package scope) and of type error.
	if v.Parent() != v.Pkg().Scope() {
		return nil
	}
	named, ok := v.Type().(*types.Named)
	if !ok || named.Obj().Name() != "error" || named.Obj().Pkg() != nil {
		return nil
	}
	return v
}

func checkComparison(pass *analysis.Pass, cmp *ast.BinaryExpr) {
	if cmp.Op != token.EQL && cmp.Op != token.NEQ {
		return
	}
	sentinel := sentinelOf(pass, cmp.X)
	if sentinel == nil {
		sentinel = sentinelOf(pass, cmp.Y)
	}
	if sentinel == nil {
		return
	}
	if pass.Suppressed(cmp.OpPos) {
		return
	}
	pass.Reportf(cmp.OpPos,
		"sentinel error %s compared with %s; use errors.Is so wrapped errors still match (or annotate //errcmp:allow <reason>)",
		sentinel.Name(), cmp.Op)
}

// checkErrorf flags fmt.Errorf calls where a sentinel-error argument is
// formatted with a verb other than %w.
func checkErrorf(pass *analysis.Pass, call *ast.CallExpr) {
	if analysis.CalleePath(pass.TypesInfo, call) != "fmt.Errorf" || len(call.Args) < 2 {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	verbs := formatVerbs(format)
	for i, arg := range call.Args[1:] {
		sentinel := sentinelOf(pass, arg)
		if sentinel == nil || i >= len(verbs) || verbs[i] == 'w' {
			continue
		}
		if pass.Suppressed(arg.Pos()) {
			continue
		}
		pass.Reportf(arg.Pos(),
			"sentinel error %s passed to fmt.Errorf as %%%c; use %%w so errors.Is still matches the wrapped error",
			sentinel.Name(), verbs[i])
	}
}

// wireErrorText maps the structs that carry a wire failure to the field
// holding its human-readable text.
var wireErrorText = map[string]string{"ErrorResponse": "Msg", "BatchQueryItem": "Err"}

// checkErrorText flags strings.Contains/HasPrefix/HasSuffix calls whose
// subject is the text field of a wire failure.
func checkErrorText(pass *analysis.Pass, call *ast.CallExpr) {
	switch analysis.CalleePath(pass.TypesInfo, call) {
	case "strings.Contains", "strings.HasPrefix", "strings.HasSuffix":
	default:
		return
	}
	if len(call.Args) == 0 {
		return
	}
	sel, ok := ast.Unparen(call.Args[0]).(*ast.SelectorExpr)
	if !ok {
		return
	}
	field := pass.TypesInfo.Selections[sel]
	if field == nil || field.Kind() != types.FieldVal {
		return
	}
	owner := analysis.TypeName(field.Recv())
	owner = owner[strings.LastIndexByte(owner, '.')+1:]
	if wireErrorText[owner] != sel.Sel.Name || pass.Suppressed(call.Pos()) {
		return
	}
	pass.Reportf(call.Pos(),
		"%s.%s is matched by substring; act on its Code (the text is for humans) (or annotate //errcmp:allow <reason>)",
		owner, sel.Sel.Name)
}

// formatVerbs returns the verb letter consuming each successive
// argument of a printf-style format. Indexed arguments ([n]) and
// star width/precision are rare in this repository and skipped
// conservatively (the call is then not checked).
func formatVerbs(format string) []byte {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		// Flags, width, precision.
		for i < len(format) && strings.ContainsRune("+-# 0123456789.", rune(format[i])) {
			i++
		}
		if i >= len(format) {
			break
		}
		switch format[i] {
		case '%':
			continue
		case '*', '[':
			return nil // star/indexed args shift positions; bail out
		default:
			verbs = append(verbs, format[i])
		}
	}
	return verbs
}
