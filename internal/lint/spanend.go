package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// SpanEndAnalyzer guards the tracing lifecycle discipline from PR 2:
//
//  1. a span obtained from Tracer.Start / TraceSpan.Child and held in
//     a local variable must have End() called in the same function
//     (prefer `defer s.End()`), and a span result must not be discarded;
//  2. nil-guards whose body only invokes span/instrument methods are
//     redundant — every telemetry method is documented as a nil-safe
//     no-op, and the guard pattern re-introduces the boilerplate the
//     nil-receiver design exists to delete.
//
// Spans that escape the function (stored in a struct field, returned,
// passed to another function, or captured) are skipped: their lifetime
// is managed elsewhere and a local check would only produce noise.
var SpanEndAnalyzer = &Analyzer{
	Name: "spanend",
	Doc: "span results must reach End() (prefer defer) and must not be discarded; " +
		"nil-guards around nil-safe telemetry methods are redundant",
	Run: runSpanEnd,
}

// spanStarters maps telemetry method/function names that mint spans.
var spanStarters = map[string]bool{
	"Start": true, // (*Tracer).Start
	"Child": true, // (*TraceSpan).Child
}

// nilSafeTelemetryTypes are the telemetry types whose entire method
// sets are nil-safe no-ops (documented on each type).
var nilSafeTelemetryTypes = map[string]bool{
	"TraceSpan": true,
	"Counter":   true,
	"Gauge":     true,
	"Histogram": true,
}

func runSpanEnd(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			checkSpanLifecycles(pass, fn.Body)
			checkRedundantNilGuards(pass, fn.Body)
			return true
		})
	}
	return nil
}

// isSpanStart reports whether call mints a telemetry span, returning
// the callee for diagnostics.
func isSpanStart(info *types.Info, call *ast.CallExpr) (*types.Func, bool) {
	f := calleeOf(info, call)
	if f == nil || !spanStarters[f.Name()] {
		return nil, false
	}
	if n := recvNamed(f); n != nil {
		return f, isTelemetryPkg(pkgPathOf(n.Obj()))
	}
	return f, isTelemetryPkg(pkgPathOf(f))
}

func starterName(f *types.Func) string {
	if n := recvNamed(f); n != nil {
		return n.Obj().Name() + "." + f.Name()
	}
	return "telemetry." + f.Name()
}

// checkSpanLifecycles finds span-minting calls in the function body and
// verifies each local, non-escaping span variable reaches End().
func checkSpanLifecycles(pass *Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			// Bare statement: `tracer.Start("x")` — span discarded.
			if call, ok := n.X.(*ast.CallExpr); ok {
				if f, ok := isSpanStart(info, call); ok {
					pass.Reportf(call.Pos(),
						"result of %s is discarded: the span can never be ended (assign it and defer End())", starterName(f))
				}
			}
			return true
		case *ast.AssignStmt:
			if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			f, ok := isSpanStart(info, call)
			if !ok {
				return true
			}
			lhs, ok := n.Lhs[0].(*ast.Ident)
			if !ok {
				return true // field or index target: escapes, lifetime managed elsewhere
			}
			if lhs.Name == "_" {
				pass.Reportf(call.Pos(),
					"result of %s is assigned to _: the span can never be ended", starterName(f))
				return true
			}
			obj := info.Defs[lhs]
			if obj == nil {
				obj = info.Uses[lhs]
			}
			if obj == nil {
				return true
			}
			escapes, ended := spanUsage(info, body, obj)
			if !escapes && !ended {
				pass.Reportf(n.Pos(),
					"span %q from %s is never ended in this function; add `defer %s.End()`", lhs.Name, starterName(f), lhs.Name)
			}
			return true
		}
		return true
	})
}

// spanUsage classifies every use of obj inside body: ended is true if
// obj.End() is called; escapes is true if obj is used in any way other
// than as a method-call receiver or as an assignment target (returned,
// passed as an argument, stored in a field/composite, compared, ...).
func spanUsage(info *types.Info, body *ast.BlockStmt, obj types.Object) (escapes, ended bool) {
	// parent links for classification.
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if info.Uses[id] != obj {
			return true
		}
		switch p := parents[id].(type) {
		case *ast.SelectorExpr:
			if p.X != id {
				return true // obj is the field name, not the receiver
			}
			// Receiver position: method call is fine, anything else
			// (e.g. field read) counts as an escape-ish use we allow.
			if call, ok := parents[p].(*ast.CallExpr); ok && call.Fun == p {
				if p.Sel.Name == "End" {
					ended = true
				}
				return true
			}
			escapes = true
		case *ast.AssignStmt:
			for _, l := range p.Lhs {
				if l == ast.Expr(id) {
					return true // reassignment target (e.g. s = nil)
				}
			}
			escapes = true // obj on the RHS: copied somewhere else
		default:
			escapes = true
		}
		return true
	})
	return escapes, ended
}

// checkRedundantNilGuards flags `if s != nil { s.M(); ... }` blocks
// whose guarded expression is a nil-safe telemetry type and whose body
// consists solely of method calls on s (and `s = nil` resets): the
// guard duplicates the nil check every telemetry method already
// performs.
func checkRedundantNilGuards(pass *Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok || ifStmt.Init != nil || ifStmt.Else != nil {
			return true
		}
		guarded := nilGuardTarget(info, ifStmt.Cond)
		if guarded == "" {
			return true
		}
		for _, stmt := range ifStmt.Body.List {
			switch s := stmt.(type) {
			case *ast.ExprStmt:
				call, ok := s.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || exprPath(sel.X) != guarded {
					return true
				}
			case *ast.AssignStmt:
				if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
					return true
				}
				if exprPath(s.Lhs[0]) != guarded {
					return true
				}
				if id, ok := ast.Unparen(s.Rhs[0]).(*ast.Ident); !ok || id.Name != "nil" {
					return true
				}
			default:
				return true
			}
		}
		pass.Reportf(ifStmt.Pos(),
			"redundant nil guard: telemetry methods on %q are nil-safe no-ops; call them directly", guarded)
		return true
	})
}

// nilGuardTarget returns the printable path of X when cond is
// `X != nil` and X's type is a pointer to a nil-safe telemetry type,
// else "".
func nilGuardTarget(info *types.Info, cond ast.Expr) string {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || be.Op != token.NEQ {
		return ""
	}
	x, y := be.X, be.Y
	if id, ok := ast.Unparen(x).(*ast.Ident); ok && id.Name == "nil" {
		x, y = y, x
	}
	if id, ok := ast.Unparen(y).(*ast.Ident); !ok || id.Name != "nil" {
		return ""
	}
	tv, ok := info.Types[x]
	if !ok {
		return ""
	}
	ptr, ok := tv.Type.Underlying().(*types.Pointer)
	if !ok {
		return ""
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || !isTelemetryPkg(pkgPathOf(named.Obj())) {
		return ""
	}
	if !nilSafeTelemetryTypes[named.Obj().Name()] {
		return ""
	}
	path := exprPath(x)
	if path == "" {
		return ""
	}
	return path
}

// exprPath renders a simple ident/selector chain ("s", "d.iterSpan")
// or "" for anything more complex.
func exprPath(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprPath(e.X)
		if base == "" {
			return ""
		}
		return fmt.Sprintf("%s.%s", base, e.Sel.Name)
	}
	return ""
}
