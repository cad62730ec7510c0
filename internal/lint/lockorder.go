package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockOrderAnalyzer enforces the documented mutex hierarchy. Mutex
// struct fields annotated `//mc:lockrank <n>` form a total order
// (Server.mu = 1 → session.mu = 2 → Debugger.mu = 3 in this repo); the
// analyzer walks every function lexically, tracking which ranked locks
// each control-flow path holds, and reports
//
//   - acquiring a lock whose rank is not strictly greater than one
//     already held (hierarchy inversion — the deadlock shape),
//   - a ranked lock held across a call that can block (joins, ledger
//     appends, HTTP response writes, slog emission, time.Sleep, and any
//     same-package function annotated `//mc:blocking`),
//   - a path that returns with a ranked lock held and no deferred
//     Unlock (the leak that serializes a whole server).
//
// The walk is lexical and per-function: branches are explored
// separately and merged by intersection, loop bodies are walked once,
// and function literals are independent scopes (a deferred closure that
// re-locks is not "the same critical section"). Only annotated mutexes
// participate, so helper locks with their own local discipline (lock
// striping, leaf tables) stay out of scope.
var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc:  "enforce the //mc:lockrank mutex hierarchy: no inversions, no blocking calls or leaked paths under a ranked lock",
	Run:  runLockOrder,
}

// A rankedMutex is one `//mc:lockrank` annotated field.
type rankedMutex struct {
	rank int
	name string // Type.field, for diagnostics
}

func runLockOrder(pass *Pass) error {
	lw := &lockWalker{
		pass:     pass,
		ranked:   collectRankedMutexes(pass),
		blocking: collectBlockingFuncs(pass),
	}
	if len(lw.ranked) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				lw.walkFunc(fd.Body)
			}
		}
	}
	return nil
}

// collectRankedMutexes finds `//mc:lockrank <n>` directives on
// sync.Mutex / sync.RWMutex struct fields and maps the field objects to
// their ranks.
func collectRankedMutexes(pass *Pass) map[types.Object]rankedMutex {
	out := make(map[types.Object]rankedMutex)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				arg, ok := mcDirective(field.Doc, "lockrank")
				if !ok {
					arg, ok = mcDirective(field.Comment, "lockrank")
				}
				if !ok {
					continue
				}
				// The rank is the first token; anything after it is prose
				// ("//mc:lockrank 2 — the session's lock domain").
				num := arg
				if i := strings.IndexAny(num, " \t"); i >= 0 {
					num = num[:i]
				}
				rank := 0
				for _, c := range num {
					if c < '0' || c > '9' {
						rank = 0
						break
					}
					rank = rank*10 + int(c-'0')
				}
				if rank == 0 {
					pass.Reportf(field.Pos(), "//mc:lockrank needs a positive integer rank, got %q", arg)
					continue
				}
				for _, name := range field.Names {
					obj := pass.TypesInfo.Defs[name]
					if obj == nil || !isMutexType(obj.Type()) {
						pass.Reportf(name.Pos(), "//mc:lockrank annotates %s, which is not a sync.Mutex or sync.RWMutex", name.Name)
						continue
					}
					out[obj] = rankedMutex{rank: rank, name: ts.Name.Name + "." + name.Name}
				}
			}
			return true
		})
	}
	return out
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// collectBlockingFuncs maps same-package functions annotated
// `//mc:blocking` to true, so calls to them count as blocking even
// though the analyzer cannot see into their bodies from the call site.
func collectBlockingFuncs(pass *Pass) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if _, ok := mcDirective(fd.Doc, "blocking"); ok {
				if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	return out
}

// A heldLock is one ranked lock a control-flow path currently holds.
type heldLock struct {
	path     string // lock expression, e.g. "sess.mu"
	field    rankedMutex
	pos      token.Pos // acquisition site
	deferred bool      // a `defer ...Unlock()` releases it at return
}

type lockState []heldLock

func (st lockState) clone() lockState {
	out := make(lockState, len(st))
	copy(out, st)
	return out
}

func (st lockState) find(path string) int {
	// Last match first: a (reported) reentrant re-acquisition makes the
	// path appear twice, and Unlock pairs with the innermost Lock.
	for i := len(st) - 1; i >= 0; i-- {
		if st[i].path == path {
			return i
		}
	}
	return -1
}

// intersect keeps the locks held on both merged paths, preserving
// st's acquisition order. A lock released on either branch is treated
// as released (the analyzer prefers missing a late report over flagging
// the branch that did release).
func (st lockState) intersect(other lockState) lockState {
	var out lockState
	for _, h := range st {
		if j := other.find(h.path); j >= 0 {
			m := h
			m.deferred = h.deferred || other[j].deferred
			out = append(out, m)
		}
	}
	return out
}

type lockWalker struct {
	pass     *Pass
	ranked   map[types.Object]rankedMutex
	blocking map[types.Object]bool
	queue    []*ast.FuncLit // literals to walk as independent scopes
}

// walkFunc analyzes one function body, then drains any function
// literals discovered inside it, each as its own empty-held scope.
func (w *lockWalker) walkFunc(body *ast.BlockStmt) {
	st, terminated := w.block(body, nil)
	if !terminated {
		w.checkReturn(st, body.End())
	}
	for len(w.queue) > 0 {
		lit := w.queue[0]
		w.queue = w.queue[1:]
		st, terminated := w.block(lit.Body, nil)
		if !terminated {
			w.checkReturn(st, lit.Body.End())
		}
	}
}

func (w *lockWalker) block(b *ast.BlockStmt, st lockState) (lockState, bool) {
	for _, s := range b.List {
		var terminated bool
		st, terminated = w.stmt(s, st)
		if terminated {
			return st, true
		}
	}
	return st, false
}

func (w *lockWalker) stmt(s ast.Stmt, st lockState) (lockState, bool) {
	switch s := s.(type) {
	case nil:
		return st, false
	case *ast.BlockStmt:
		return w.block(s, st)
	case *ast.ExprStmt:
		return w.exprs(st, s.X), false
	case *ast.AssignStmt:
		st = w.exprs(st, s.Rhs...)
		return w.exprs(st, s.Lhs...), false
	case *ast.IncDecStmt:
		return w.exprs(st, s.X), false
	case *ast.SendStmt:
		return w.exprs(st, s.Chan, s.Value), false
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					st = w.exprs(st, vs.Values...)
				}
			}
		}
		return st, false
	case *ast.DeferStmt:
		return w.deferStmt(s, st), false
	case *ast.GoStmt:
		// The goroutine body runs elsewhere; only argument evaluation
		// happens on this path.
		st = w.exprs(st, s.Call.Args...)
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.queue = append(w.queue, lit)
		}
		return st, false
	case *ast.ReturnStmt:
		st = w.exprs(st, s.Results...)
		w.checkReturn(st, s.Pos())
		return st, true
	case *ast.BranchStmt:
		// break/continue/goto leave this lexical path; the target path
		// is analyzed from its own statements.
		return st, true
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.IfStmt:
		st, _ = w.stmt(s.Init, st)
		st = w.exprs(st, s.Cond)
		thenSt, thenTerm := w.block(s.Body, st.clone())
		elseSt, elseTerm := st, false
		if s.Else != nil {
			elseSt, elseTerm = w.stmt(s.Else, st.clone())
		}
		switch {
		case thenTerm && elseTerm:
			return st, true
		case thenTerm:
			return elseSt, false
		case elseTerm:
			return thenSt, false
		default:
			return thenSt.intersect(elseSt), false
		}
	case *ast.ForStmt:
		st, _ = w.stmt(s.Init, st)
		if s.Cond != nil {
			st = w.exprs(st, s.Cond)
		}
		// The body is walked once for its own diagnostics; the
		// post-loop state conservatively keeps the pre-loop locks.
		w.block(s.Body, st.clone())
		return st, false
	case *ast.RangeStmt:
		st = w.exprs(st, s.X)
		w.block(s.Body, st.clone())
		return st, false
	case *ast.SwitchStmt:
		st, _ = w.stmt(s.Init, st)
		if s.Tag != nil {
			st = w.exprs(st, s.Tag)
		}
		return w.caseClauses(s.Body, st)
	case *ast.TypeSwitchStmt:
		st, _ = w.stmt(s.Init, st)
		st, _ = w.stmt(s.Assign, st)
		return w.caseClauses(s.Body, st)
	case *ast.SelectStmt:
		return w.caseClauses(s.Body, st)
	default:
		return st, false
	}
}

// caseClauses merges the branches of a switch/select body. The zero-case
// fallthrough path (no default clause) keeps the incoming state.
func (w *lockWalker) caseClauses(body *ast.BlockStmt, st lockState) (lockState, bool) {
	var survivors []lockState
	hasDefault := false
	for _, cs := range body.List {
		var list []ast.Stmt
		in := st.clone()
		switch cs := cs.(type) {
		case *ast.CaseClause:
			if cs.List == nil {
				hasDefault = true
			}
			in = w.exprs(in, cs.List...)
			list = cs.Body
		case *ast.CommClause:
			if cs.Comm == nil {
				hasDefault = true
			} else {
				in, _ = w.stmt(cs.Comm, in)
			}
			list = cs.Body
		default:
			continue
		}
		terminated := false
		for _, s := range list {
			in, terminated = w.stmt(s, in)
			if terminated {
				break
			}
		}
		if !terminated {
			survivors = append(survivors, in)
		}
	}
	if !hasDefault {
		survivors = append(survivors, st)
	}
	if len(survivors) == 0 {
		return st, true
	}
	out := survivors[0]
	for _, s := range survivors[1:] {
		out = out.intersect(s)
	}
	return out, false
}

// deferStmt handles `defer X.mu.Unlock()` (marks the lock released at
// return) and queues deferred function literals as independent scopes.
func (w *lockWalker) deferStmt(s *ast.DeferStmt, st lockState) lockState {
	if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
		w.queue = append(w.queue, lit)
		return w.exprsNoCalls(st, s.Call.Args...)
	}
	if mu, op, ok := w.lockOp(s.Call); ok && (op == "Unlock" || op == "RUnlock") {
		if i := st.find(mu.path); i >= 0 {
			st = st.clone()
			st[i].deferred = true
		}
		return st
	}
	return w.exprs(st, s.Call.Args...)
}

// exprsNoCalls evaluates expressions for held-state purposes without
// treating their calls as executing now (deferred-closure arguments).
func (w *lockWalker) exprsNoCalls(st lockState, exprs ...ast.Expr) lockState {
	return st
}

// lockedMutex describes one resolved ranked-mutex expression.
type lockedMutex struct {
	path  string
	field rankedMutex
}

// lockOp reports whether call is `<ranked mutex>.Lock/RLock/Unlock/
// RUnlock()` and which.
func (w *lockWalker) lockOp(call *ast.CallExpr) (lockedMutex, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockedMutex{}, "", false
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return lockedMutex{}, "", false
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return lockedMutex{}, "", false
	}
	fieldSel, ok := w.pass.TypesInfo.Selections[inner]
	if !ok {
		return lockedMutex{}, "", false
	}
	rm, ok := w.ranked[fieldSel.Obj()]
	if !ok {
		return lockedMutex{}, "", false
	}
	path := exprPath(sel.X)
	if path == "" {
		path = rm.name
	}
	return lockedMutex{path: path, field: rm}, op, true
}

// exprs processes the calls inside the given expressions in source
// order: lock operations mutate the held set, blocking calls are
// checked against it. Function literals are queued, not descended into.
func (w *lockWalker) exprs(st lockState, exprs ...ast.Expr) lockState {
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				w.queue = append(w.queue, lit)
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if mu, op, ok := w.lockOp(call); ok {
				switch op {
				case "Lock", "RLock":
					for _, h := range st {
						if h.field.rank >= mu.field.rank {
							w.pass.Reportf(call.Pos(),
								"acquiring %s (lock rank %d) while holding %s (rank %d) inverts the lock hierarchy",
								mu.path, mu.field.rank, h.path, h.field.rank)
							break
						}
					}
					st = append(st.clone(), heldLock{path: mu.path, field: mu.field, pos: call.Pos()})
				case "Unlock", "RUnlock":
					if i := st.find(mu.path); i >= 0 {
						st = append(st[:i:i], st[i+1:]...)
					}
				}
				return true
			}
			if len(st) > 0 {
				if desc, ok := w.blockingCall(call); ok {
					h := st[len(st)-1]
					w.pass.Reportf(call.Pos(),
						"%s (lock rank %d) is held across %s, which can block; release the lock first",
						h.path, h.field.rank, desc)
				}
			}
			return true
		})
	}
	return st
}

// checkReturn reports ranked locks still held (with no deferred Unlock)
// when a path returns or the function ends.
func (w *lockWalker) checkReturn(st lockState, pos token.Pos) {
	for _, h := range st {
		if !h.deferred {
			w.pass.Reportf(pos,
				"this path returns with %s (lock rank %d) still locked and no deferred Unlock",
				h.path, h.field.rank)
		}
	}
}

// blockingCall reports whether call can block its goroutine long enough
// that holding a ranked lock across it is a serving hazard, returning a
// description for the diagnostic.
func (w *lockWalker) blockingCall(call *ast.CallExpr) (string, bool) {
	info := w.pass.TypesInfo
	// Any call handed an http.ResponseWriter may write the response —
	// a network write under a session lock stalls every other request.
	for _, arg := range call.Args {
		if t, ok := info.Types[arg]; ok && isResponseWriter(t.Type) {
			return "a call that writes the HTTP response", true
		}
	}
	// Method calls on a ResponseWriter value are response writes.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && isResponseWriter(s.Recv()) {
			return "an HTTP response write", true
		}
	}
	callee := calleeOf(info, call)
	if callee == nil {
		return "", false
	}
	if w.blocking[callee] {
		return "a call to " + callee.Name() + " (//mc:blocking)", true
	}
	name := callee.Name()
	pkg := pkgPathOf(callee)
	if recv := recvNamed(callee); recv != nil {
		// For methods, the receiver's package decides which rule
		// applies (runlog.Log.Append, slog.Logger.Info, ...).
		pkg = pkgPathOf(recv.Obj())
		switch {
		case pkg == "log/slog" && recv.Obj().Name() == "Logger":
			switch name {
			case "Debug", "Info", "Warn", "Error",
				"DebugContext", "InfoContext", "WarnContext", "ErrorContext",
				"Log", "LogAttrs":
				return "slog emission (" + name + ")", true
			}
			return "", false
		case pkg == "net/http" && recv.Obj().Name() == "Client":
			return "an outbound HTTP call", true
		}
	}
	switch {
	case pkg == "time" && name == "Sleep":
		return "time.Sleep", true
	case pkg == "io" && name == "ReadAll":
		return "io.ReadAll", true
	case pkg == "net/http" && (name == "Get" || name == "Post" || name == "PostForm" || name == "Head"):
		return "an outbound HTTP call", true
	case isRunlogPkg(pkg) && name == "Append":
		return "the ledger append (runlog.Append does file I/O)", true
	case isSSJoinPkg(pkg) && (name == "JoinAll" || name == "JoinOne" || name == "BruteForce"):
		return "the join (" + name + ")", true
	case isCorePkg(pkg) && name == "New":
		return "pipeline construction (core.New runs the joins)", true
	}
	return "", false
}

// isResponseWriter reports whether t is the net/http.ResponseWriter
// interface.
func isResponseWriter(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "ResponseWriter"
}
