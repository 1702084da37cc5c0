// Package lockcheck flags operations that must not happen while a
// sync.Mutex or sync.RWMutex is held: channel sends, blocking
// network/file I/O, time.Sleep, and calls of function-typed values
// (user callbacks, dialers — code the lock holder does not control).
// Each is a latent deadlock or a tail-latency cliff: the lock serializes
// every other path through the structure behind an operation of
// unbounded duration. This is the bug class fixed twice in PR 5's
// review rounds (lazyTransport dialing under its mutex).
//
// Sends that are provably non-blocking — a send case of a select that
// has a default clause — are not flagged. Audited exceptions (for
// example internal/subs/feed.go's drop-oldest send, where the freed
// slot makes the send non-blocking) carry a
//
//	//lockcheck:allow <why this cannot block>
//
// directive on the same line or the line above.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the lockcheck pass.
var Analyzer = &analysis.Analyzer{
	Name:      "lockcheck",
	Doc:       "flag channel sends, I/O, and callback invocations under a held sync mutex",
	Directive: "lockcheck:allow",
	Run:       run,
}

// blockingCalls are stdlib entry points that block on the network, the
// disk, or the clock. Method entries use the receiver's named type.
var blockingCalls = map[string]bool{
	"net.Dial":               true,
	"net.DialTimeout":        true,
	"net.Listen":             true,
	"crypto/tls.Dial":        true,
	"net.Dialer.Dial":        true,
	"net.Dialer.DialContext": true,
	"net/http.Get":           true,
	"net/http.Post":          true,
	"net/http.Head":          true,
	"net/http.Client.Do":     true,
	"net.Conn.Read":          true,
	"net.Conn.Write":         true,
	"net.TCPConn.Read":       true,
	"net.TCPConn.Write":      true,
	"net.Listener.Accept":    true,
	"os.Open":                true,
	"os.Create":              true,
	"os.OpenFile":            true,
	"os.ReadFile":            true,
	"os.WriteFile":           true,
	"os.Rename":              true,
	"os.Remove":              true,
	"os.RemoveAll":           true,
	"os.File.Read":           true,
	"os.File.Write":          true,
	"os.File.WriteString":    true,
	"os.File.Sync":           true,
	"io.Copy":                true,
	"io.ReadAll":             true,
	"time.Sleep":             true,
	"sync.WaitGroup.Wait":    true,
}

// heldLock is one mutex known to be held at the current scan point.
type heldLock struct {
	key    string // rendered receiver expression, e.g. "f.mu"
	unlock string // matching unlock method name
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			// Every function body — declarations and literals — is an
			// independent critical-section scope.
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					scanStmts(pass, fn.Body.List, callerHeld(fn))
				}
			case *ast.FuncLit:
				scanStmts(pass, fn.Body.List, nil)
			}
			return true
		})
	}
	return nil
}

// callerHeld returns the lock set a function starts with. The project's
// naming contract is that a method named fooLocked runs with its
// receiver's mutex already held by the caller, so its body is scanned
// as one big critical section.
func callerHeld(fn *ast.FuncDecl) []heldLock {
	if fn.Recv == nil || !strings.HasSuffix(fn.Name.Name, "Locked") {
		return nil
	}
	return []heldLock{{key: "the caller's mutex (" + fn.Name.Name + " follows the *Locked contract)"}}
}

// mutexCall reports whether stmt is a lock or unlock call on a sync
// mutex, returning the rendered receiver and the method name.
func mutexCall(pass *analysis.Pass, stmt ast.Stmt) (key, method string, ok bool) {
	es, ok2 := stmt.(*ast.ExprStmt)
	if !ok2 {
		return "", "", false
	}
	call, ok2 := es.X.(*ast.CallExpr)
	if !ok2 {
		return "", "", false
	}
	sel, ok2 := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok2 {
		return "", "", false
	}
	path := analysis.CalleePath(pass.TypesInfo, call)
	switch path {
	case "sync.Mutex.Lock", "sync.Mutex.Unlock",
		"sync.RWMutex.Lock", "sync.RWMutex.Unlock",
		"sync.RWMutex.RLock", "sync.RWMutex.RUnlock":
		return types.ExprString(sel.X), sel.Sel.Name, true
	}
	return "", "", false
}

// scanStmts walks one statement list tracking the set of held locks.
// Compound statements recurse with a copy of the set, so an early-exit
// branch that unlocks does not clear the lock for the fallthrough path.
func scanStmts(pass *analysis.Pass, stmts []ast.Stmt, held []heldLock) {
	held = append([]heldLock(nil), held...)
	for _, stmt := range stmts {
		for {
			ls, ok := stmt.(*ast.LabeledStmt)
			if !ok {
				break
			}
			stmt = ls.Stmt
		}
		if key, method, ok := mutexCall(pass, stmt); ok {
			switch method {
			case "Lock", "RLock":
				unlock := "Unlock"
				if method == "RLock" {
					unlock = "RUnlock"
				}
				held = append(held, heldLock{key: key, unlock: unlock})
			case "Unlock", "RUnlock":
				for i := len(held) - 1; i >= 0; i-- {
					if held[i].key == key && held[i].unlock == method {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			}
			continue
		}
		switch s := stmt.(type) {
		case *ast.DeferStmt:
			// Deferred work runs after the function's own unlocks (or is
			// the unlock itself); either way it is not "under" the lock
			// for this forward scan.
		case *ast.GoStmt:
			// A goroutine does not inherit the caller's critical section,
			// but its argument expressions are evaluated here.
			for _, arg := range s.Call.Args {
				checkExpr(pass, arg, held)
			}
		case *ast.BlockStmt:
			scanStmts(pass, s.List, held)
		case *ast.IfStmt:
			if s.Init != nil {
				checkStmtExprs(pass, s.Init, held)
			}
			checkExpr(pass, s.Cond, held)
			scanStmts(pass, s.Body.List, held)
			if s.Else != nil {
				scanStmts(pass, []ast.Stmt{s.Else}, held)
			}
		case *ast.ForStmt:
			if s.Init != nil {
				checkStmtExprs(pass, s.Init, held)
			}
			if s.Cond != nil {
				checkExpr(pass, s.Cond, held)
			}
			scanStmts(pass, s.Body.List, held)
		case *ast.RangeStmt:
			checkExpr(pass, s.X, held)
			scanStmts(pass, s.Body.List, held)
		case *ast.SwitchStmt:
			if s.Init != nil {
				checkStmtExprs(pass, s.Init, held)
			}
			if s.Tag != nil {
				checkExpr(pass, s.Tag, held)
			}
			for _, c := range s.Body.List {
				scanStmts(pass, c.(*ast.CaseClause).Body, held)
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				scanStmts(pass, c.(*ast.CaseClause).Body, held)
			}
		case *ast.SelectStmt:
			scanSelect(pass, s, held)
		default:
			checkStmtExprs(pass, stmt, held)
		}
	}
}

// scanSelect handles a select statement: a send case is non-blocking
// when the select has a default clause, so only defaultless selects
// have their send cases flagged. Case bodies run after the
// communication and are scanned normally.
func scanSelect(pass *analysis.Pass, s *ast.SelectStmt, held []heldLock) {
	hasDefault := false
	for _, c := range s.Body.List {
		if c.(*ast.CommClause).Comm == nil {
			hasDefault = true
		}
	}
	for _, c := range s.Body.List {
		cc := c.(*ast.CommClause)
		if send, ok := cc.Comm.(*ast.SendStmt); ok {
			if hasDefault {
				checkExpr(pass, send.Value, held) // value expr still evaluated
			} else {
				checkStmtExprs(pass, send, held)
			}
		}
		scanStmts(pass, cc.Body, held)
	}
}

// checkStmtExprs reports violations inside one simple statement.
func checkStmtExprs(pass *analysis.Pass, stmt ast.Stmt, held []heldLock) {
	if len(held) == 0 {
		return
	}
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false // a closure body runs when called, not here
		case *ast.SendStmt:
			report(pass, v.Arrow, held, "channel send")
			return true
		case *ast.CallExpr:
			checkCall(pass, v, held)
			return true
		}
		return true
	})
}

// checkExpr reports violations inside one expression.
func checkExpr(pass *analysis.Pass, expr ast.Expr, held []heldLock) {
	if len(held) == 0 {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			checkCall(pass, v, held)
		}
		return true
	})
}

// checkCall classifies one call made under a held lock.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, held []heldLock) {
	if path := analysis.CalleePath(pass.TypesInfo, call); path != "" {
		if blockingCalls[path] {
			report(pass, call.Pos(), held, "call to "+path)
		}
		return
	}
	// Dynamic call: the callee is a function-typed value (a callback,
	// a dialer field, a handler) rather than a statically known
	// function. The lock holder cannot bound what it does.
	fun := ast.Unparen(call.Fun)
	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[f]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[f.Sel]
	default:
		return
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return // conversion, builtin, static func, or type error
	}
	if _, ok := v.Type().Underlying().(*types.Signature); !ok {
		return
	}
	report(pass, call.Pos(), held, "call of function value "+types.ExprString(fun))
}

func report(pass *analysis.Pass, pos token.Pos, held []heldLock, what string) {
	if pass.Suppressed(pos) {
		return
	}
	pass.Reportf(pos, "%s while %s is held; move it outside the critical section or annotate //lockcheck:allow <reason>",
		what, held[len(held)-1].key)
}
