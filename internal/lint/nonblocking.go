package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"

	"ghm/internal/lint/analysis"
)

// NonblockingHandler enforces the engine's push-handler contract: a
// function registered with (*engine.Endpoint).SetHandler — or scheduled
// as a wheel callback via (*engine.Wheel).AfterFunc — runs on the shared
// pump (or wheel) goroutine for every endpoint on the conn. If it
// blocks, every station, peer and session sharing that conn stalls with it.
// Handlers shed instead: the protocol models shedding as link loss and
// recovers by design, whereas a stalled pump is a fault outside the
// model entirely.
//
// Three behaviours are reported, in the handler and in every
// same-package function it statically calls:
//
//   - channel sends outside a select with a default case (a buffered
//     channel with an ownership argument is legitimate — say so with a
//     //lint:allow nonblockinghandler directive)
//   - blocking channel receives and selects without a default case
//   - calls to conn-shaped I/O (a Send/Recv method on a type that also
//     has Recv/Send and Close) while a sync.Mutex or sync.RWMutex is
//     held in the same function: the I/O can stall inside the lock and
//     every other pump callback then queues behind the mutex
//
// The call-graph walk is static and package-local: dynamic calls
// (function values, interface methods) and cross-package calls are not
// followed. The lock tracking is a per-function straight-line
// approximation — branches inherit the lock state but do not propagate
// changes out.
var NonblockingHandler = &analysis.Analyzer{
	Name: "nonblockinghandler",
	Doc: `engine push handlers and wheel callbacks must not block

Functions registered via (*engine.Endpoint).SetHandler or scheduled via
(*engine.Wheel).AfterFunc run on the shared pump/wheel goroutine: a
blocking send, a blocking receive, a select without default, or
conn-shaped I/O performed while holding a mutex stalls every endpoint on
the conn. Handlers shed — the protocol models shedding as loss.`,
	Run: runNonblockingHandler,
}

func runNonblockingHandler(pass *analysis.Pass) error {
	info := pass.TypesInfo

	// Index this package's function declarations by their object, so
	// method values (r.handlePacket) and idents resolve to bodies.
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
					decls[obj] = fd
				}
			}
		}
	}

	// Collect handler roots: arguments of SetHandler / Wheel.AfterFunc.
	type root struct {
		name string
		body *ast.BlockStmt
		obj  *types.Func // nil for literals
	}
	var roots []root
	addRoot := func(arg ast.Expr, kind string) {
		switch a := ast.Unparen(arg).(type) {
		case *ast.FuncLit:
			roots = append(roots, root{name: kind + " literal", body: a.Body})
		case *ast.Ident, *ast.SelectorExpr:
			var obj types.Object
			if id, ok := a.(*ast.Ident); ok {
				obj = info.Uses[id]
			} else {
				obj = info.Uses[a.(*ast.SelectorExpr).Sel]
			}
			if fn, ok := obj.(*types.Func); ok {
				if fd, ok := decls[fn]; ok {
					roots = append(roots, root{name: fn.Name(), body: fd.Body, obj: fn})
				}
			}
		}
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := funcObjOf(info, call)
			switch {
			case isMethodOf(fn, "ghm/internal/engine", "Endpoint", "SetHandler") && len(call.Args) == 1:
				addRoot(call.Args[0], "push handler")
			case isMethodOf(fn, "ghm/internal/engine", "Wheel", "AfterFunc") && len(call.Args) == 2:
				addRoot(call.Args[1], "wheel callback")
			}
			return true
		})
	}
	if len(roots) == 0 {
		return nil
	}

	c := &handlerChecker{pass: pass, decls: decls, checked: make(map[*ast.BlockStmt]bool)}
	for _, r := range roots {
		c.check(r.name, r.body)
	}
	return nil
}

type handlerChecker struct {
	pass    *analysis.Pass
	decls   map[*types.Func]*ast.FuncDecl
	checked map[*ast.BlockStmt]bool
}

// check analyzes one function body on the pump path, then recurses into
// same-package static callees.
func (c *handlerChecker) check(name string, body *ast.BlockStmt) {
	if body == nil || c.checked[body] {
		return
	}
	c.checked[body] = true
	c.walkStmts(name, body.List, map[string]bool{})

	// Recurse into same-package callees (memoized via c.checked).
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // literals run on their own terms (goroutines, callbacks)
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := funcObjOf(c.pass.TypesInfo, call)
		if fn == nil || fn.Pkg() != c.pass.Pkg {
			return true
		}
		if fd, ok := c.decls[fn]; ok {
			c.check(fn.Name(), fd.Body)
		}
		return true
	})
}

// walkStmts scans a statement list in source order, tracking which
// mutexes are held. Branch bodies get a copy of the held set; sequential
// statements share it.
func (c *handlerChecker) walkStmts(name string, stmts []ast.Stmt, held map[string]bool) {
	for _, s := range stmts {
		c.walkStmt(name, s, held)
	}
}

func (c *handlerChecker) walkStmt(name string, s ast.Stmt, held map[string]bool) {
	switch st := s.(type) {
	case *ast.SendStmt:
		c.pass.Reportf(st.Arrow,
			"channel send in %s runs on the engine pump and can block every endpoint on the conn; shed via select-with-default (or //lint:allow nonblockinghandler with the ownership argument)",
			name)
	case *ast.SelectStmt:
		hasDefault := false
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			c.pass.Reportf(st.Select,
				"select without default in %s blocks the engine pump; handlers shed instead of waiting",
				name)
		}
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				c.walkStmts(name, cc.Body, copyHeld(held))
			}
		}
	case *ast.RangeStmt:
		if t, ok := c.pass.TypesInfo.Types[st.X]; ok {
			if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
				c.pass.Reportf(st.For,
					"range over channel in %s blocks the engine pump until the channel closes",
					name)
			}
		}
		c.scanExprs(name, held, st.X)
		c.walkStmt(name, st.Body, copyHeld(held))
	case *ast.BlockStmt:
		c.walkStmts(name, st.List, held)
	case *ast.IfStmt:
		if st.Init != nil {
			c.walkStmt(name, st.Init, held)
		}
		c.scanExprs(name, held, st.Cond)
		c.walkStmt(name, st.Body, copyHeld(held))
		if st.Else != nil {
			c.walkStmt(name, st.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if st.Init != nil {
			c.walkStmt(name, st.Init, held)
		}
		if st.Cond != nil {
			c.scanExprs(name, held, st.Cond)
		}
		c.walkStmt(name, st.Body, copyHeld(held))
	case *ast.SwitchStmt:
		if st.Init != nil {
			c.walkStmt(name, st.Init, held)
		}
		if st.Tag != nil {
			c.scanExprs(name, held, st.Tag)
		}
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				c.walkStmts(name, cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				c.walkStmts(name, cc.Body, copyHeld(held))
			}
		}
	case *ast.DeferStmt:
		// defer mu.Unlock() means the lock is held for the rest of the
		// function — which is exactly what the held set already says, so
		// a deferred unlock changes nothing. Deferred I/O still counts.
		c.scanCall(name, held, st.Call, true)
	case *ast.GoStmt:
		// A spawned goroutine may block on its own time.
	case *ast.ExprStmt:
		c.scanExprs(name, held, st.X)
	case *ast.AssignStmt:
		c.scanExprs(name, held, st.Rhs...)
	case *ast.ReturnStmt:
		c.scanExprs(name, held, st.Results...)
	case *ast.LabeledStmt:
		c.walkStmt(name, st.Stmt, held)
	}
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// scanExprs processes the calls and receives inside expressions, in
// source order, updating the held set for Lock/Unlock and reporting
// blocking receives and I/O-under-lock.
func (c *handlerChecker) scanExprs(name string, held map[string]bool, exprs ...ast.Expr) {
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.UnaryExpr:
				if x.Op == token.ARROW {
					c.pass.Reportf(x.OpPos,
						"blocking channel receive in %s stalls the engine pump; handlers are push-driven and never wait",
						name)
				}
			case *ast.CallExpr:
				c.scanCall(name, held, x, false)
			}
			return true
		})
	}
}

// scanCall classifies one call: mutex bookkeeping, then I/O-under-lock.
func (c *handlerChecker) scanCall(name string, held map[string]bool, call *ast.CallExpr, deferred bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	method := sel.Sel.Name
	recvT, okT := c.pass.TypesInfo.Types[sel.X]
	if !okT {
		return
	}
	if isMutexType(recvT.Type) {
		key := exprKey(sel.X)
		switch method {
		case "Lock", "RLock":
			if !deferred {
				held[key] = true
			}
		case "Unlock", "RUnlock":
			if !deferred {
				delete(held, key)
			}
		}
		return
	}
	if len(held) > 0 && (method == "Send" || method == "Recv") && isConnShaped(recvT.Type) {
		c.pass.Reportf(call.Pos(),
			"%s on %s while holding a mutex in %s: conn I/O can stall inside the lock and serialize every pump callback behind it; release the lock before I/O",
			method, types.TypeString(recvT.Type, types.RelativeTo(c.pass.Pkg)), name)
	}
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (through
// one pointer).
func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return false
	}
	return n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex"
}

// isConnShaped reports whether t's method set (or *t's) carries the
// PacketConn shape: Send, Recv and Close. This catches the engine
// Endpoint, netlink.PacketConn and every conn wrapper without naming
// them.
func isConnShaped(t types.Type) bool {
	has := func(ms *types.MethodSet, name string) bool {
		return ms.Lookup(nil, name) != nil || lookupExported(ms, name)
	}
	ms := types.NewMethodSet(t)
	if _, ok := t.Underlying().(*types.Interface); !ok {
		if _, isPtr := t.(*types.Pointer); !isPtr {
			ms = types.NewMethodSet(types.NewPointer(t))
		}
	}
	return has(ms, "Send") && has(ms, "Recv") && has(ms, "Close")
}

// lookupExported finds an exported method by name regardless of package.
func lookupExported(ms *types.MethodSet, name string) bool {
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == name {
			return true
		}
	}
	return false
}

// exprKey renders an expression as a stable string key (for tracking
// which mutex value is held).
func exprKey(e ast.Expr) string {
	var buf bytes.Buffer
	_ = printer.Fprint(&buf, token.NewFileSet(), e)
	return buf.String()
}
