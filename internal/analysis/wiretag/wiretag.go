// Package wiretag is an exhaustiveness checker for the wire protocol:
// every message tag constant (a package-level constant of the package's
// MsgType type) must be handled by the binary codec's Encode and Decode
// paths, must map to a message struct via a Type() method, and must be
// seeded into FuzzWireDecode. PR 5 and PR 6 each added tags to the
// codec paths plus fuzz seeds by hand; this pass turns "did you update
// every place" into a single diagnostic per missing pairing.
//
// Codec attribution is by receiver naming convention: the entry methods
// named Encode/Decode on a type whose name contains "binary" root the
// reachability walk, and every same-package function reachable from a
// root belongs to that codec path.
package wiretag

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the wiretag pass.
var Analyzer = &analysis.Analyzer{
	Name:      "wiretag",
	Doc:       "check wire tag constants are encoded, decoded, and fuzz-seeded exhaustively",
	Directive: "wiretag:allow",
	Run:       run,
}

// funcFacts records, for one function declaration, what it references
// and calls.
type funcFacts struct {
	decl     *ast.FuncDecl
	consts   map[*types.Const]bool
	typeRefs map[*types.TypeName]bool
	calls    map[*types.Func]bool
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() != "wire" {
		return nil
	}
	// The package's MsgType-like tag type: a defined type whose name is
	// "MsgType". Absent that, there is nothing to check.
	tagType, _ := pass.Pkg.Scope().Lookup("MsgType").(*types.TypeName)
	if tagType == nil {
		return nil
	}

	// Tag constants of that type, in declaration order.
	var tags []*types.Const
	for _, name := range pass.Pkg.Scope().Names() {
		c, ok := pass.Pkg.Scope().Lookup(name).(*types.Const)
		if ok && analysis.TypeName(c.Type()) == analysis.TypeName(tagType.Type()) {
			tags = append(tags, c)
		}
	}
	if len(tags) == 0 {
		return nil
	}

	facts := collectFacts(pass)

	// Map each tag to the message struct whose Type() method returns it.
	structOf := map[*types.Const]*types.TypeName{}
	for _, ff := range facts {
		fn := ff.decl
		if fn.Name.Name != "Type" || fn.Recv == nil || fn.Body == nil || len(fn.Body.List) != 1 {
			continue
		}
		ret, ok := fn.Body.List[0].(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			continue
		}
		c, ok := constOf(pass, ret.Results[0])
		if !ok {
			continue
		}
		if tn := receiverTypeName(pass, fn); tn != nil && structOf[c] == nil {
			structOf[c] = tn
		}
	}

	// Reachability per codec path.
	binEnc := reachable(pass, facts, "binary", "Encode")
	binDec := reachable(pass, facts, "binary", "Decode")

	refIn := func(set map[*types.Func]bool, c *types.Const) bool {
		for _, ff := range facts {
			if fn := declFunc(pass, ff.decl); fn != nil && set[fn] && ff.consts[c] {
				return true
			}
		}
		return false
	}
	fuzzSeeds := func(c *types.TypeName) bool {
		for _, ff := range facts {
			if ff.decl.Name.Name == "FuzzWireDecode" && ff.typeRefs[c] {
				return true
			}
		}
		return false
	}

	for _, tag := range tags {
		var missing []string
		if !refIn(binEnc, tag) {
			missing = append(missing, "binary-codec Encode path")
		}
		if !refIn(binDec, tag) {
			missing = append(missing, "binary-codec Decode path")
		}
		if st := structOf[tag]; st == nil {
			missing = append(missing, "Type() method of a message struct")
		} else if !fuzzSeeds(st) {
			missing = append(missing, "FuzzWireDecode seed ("+st.Name()+")")
		}
		if len(missing) > 0 && pass.Suppressed(tag.Pos()) {
			continue
		}
		for _, m := range missing {
			pass.Reportf(tag.Pos(), "wire tag %s: not covered by the %s", tag.Name(), m)
		}
	}
	return nil
}

// collectFacts records per-function constant uses, type references, and
// same-package call edges.
func collectFacts(pass *analysis.Pass) []*funcFacts {
	var out []*funcFacts
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ff := &funcFacts{
				decl:     fn,
				consts:   map[*types.Const]bool{},
				typeRefs: map[*types.TypeName]bool{},
				calls:    map[*types.Func]bool{},
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.Ident:
					switch obj := pass.TypesInfo.Uses[v].(type) {
					case *types.Const:
						if obj.Pkg() == pass.Pkg {
							ff.consts[obj] = true
						}
					case *types.TypeName:
						if obj.Pkg() == pass.Pkg {
							ff.typeRefs[obj] = true
						}
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

// receiverTypeName resolves the named type of a method receiver.
func receiverTypeName(pass *analysis.Pass, fn *ast.FuncDecl) *types.TypeName {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return nil
	}
	t := pass.TypesInfo.TypeOf(fn.Recv.List[0].Type)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// constOf resolves an expression to a package constant.
func constOf(pass *analysis.Pass, expr ast.Expr) (*types.Const, bool) {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		c, ok := pass.TypesInfo.Uses[e].(*types.Const)
		return c, ok
	case *ast.SelectorExpr:
		c, ok := pass.TypesInfo.Uses[e.Sel].(*types.Const)
		return c, ok
	}
	return nil, false
}

// reachable returns the same-package functions reachable from the
// codec entry method (receiver type name containing codec,
// case-insensitive; method named entry).
func reachable(pass *analysis.Pass, facts []*funcFacts, codec, entry string) map[*types.Func]bool {
	set := map[*types.Func]bool{}
	var queue []*types.Func
	for _, ff := range facts {
		fn := ff.decl
		if fn.Name.Name != entry || fn.Recv == nil {
			continue
		}
		tn := receiverTypeName(pass, fn)
		if tn == nil || !strings.Contains(strings.ToLower(tn.Name()), codec) {
			continue
		}
		if obj := declFunc(pass, fn); obj != nil && !set[obj] {
			set[obj] = true
			queue = append(queue, obj)
		}
	}
	byObj := map[*types.Func]*funcFacts{}
	for _, ff := range facts {
		if obj := declFunc(pass, ff.decl); obj != nil {
			byObj[obj] = ff
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
