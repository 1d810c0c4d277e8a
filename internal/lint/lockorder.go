package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"ghm/internal/lint/analysis"
)

// LockOrder assembles the module-wide lock-order graph and reports any
// cycle in it as a potential deadlock. A node is a mutex identified at
// type granularity (pkg.Type.field for field mutexes, pkg.var for
// package-level ones); an edge A→B is recorded whenever B is acquired
// while A is held — directly, or through a static call chain, including
// chains that cross package boundaries via exported facts. The paper's
// liveness results (and the ROADMAP's ghmgate daemon) assume the runtime
// around the protocol machines can always make progress; a lock-order
// cycle is precisely a reachable configuration that cannot.
//
// Granularity and soundness trades, deliberately chosen:
//
//   - locks are identified by declaration, not instance: two nodes of
//     the same struct type share a key, so instance-level ordering
//     (hand-over-hand over siblings) is out of scope and self-edges are
//     not recorded;
//   - dynamic calls (function values, interface methods) are opaque;
//   - held-set tracking is the same straight-line approximation the
//     nonblockinghandler check uses — sequential statements share the
//     set, branches copy it, a deferred Unlock holds to function end.
//
// Each package exports a fact carrying its local edges and, per
// function, the set of locks the function may transitively acquire;
// importing packages extend the graph through their own calls. A cycle
// is reported once, anchored at a local edge in it, so the package that
// completes the cycle is the one that hears about it.
var LockOrder = &analysis.Analyzer{
	Name: "lockorder",
	Doc: `the module-wide lock-order graph must be acyclic

Whenever one mutex is acquired while another is held (directly or
through static calls, across packages via facts), the pair becomes an
edge in the module's lock-order graph. A cycle in that graph is a
deadlock waiting for the right interleaving. Locks are identified at
type granularity (pkg.Type.field / pkg.var); use //lint:allow lockorder
with the ordering argument for cycles that are provably instance-safe.`,
	Run: runLockOrder,
}

// lockEdge is one held→acquired observation.
type lockEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
	Func string `json:"func"` // pkg-qualified function the edge was taken in
	Pos  string `json:"pos"`  // file:line of the acquisition
}

// lockOrderFact is one package's contribution to the module-wide graph.
type lockOrderFact struct {
	// Acquires maps funcKey to the sorted set of locks the function may
	// acquire, transitively through same-package and imported calls.
	Acquires map[string][]string `json:"acquires,omitempty"`
	// Edges are the held→acquired pairs recorded in this package.
	Edges []lockEdge `json:"edges,omitempty"`
}

func runLockOrder(pass *analysis.Pass) error {
	lo := &lockOrderState{
		pass:     pass,
		decls:    collectDecls(pass),
		acquires: make(map[*types.Func]map[string]bool),
		calls:    make(map[*types.Func][]*types.Func),
		imported: make(map[string][]string),
	}

	// Imported facts: funcKey (pkg-qualified) -> acquires, plus edges.
	var importedEdges []lockEdge
	for _, dep := range pass.FactPackages() {
		var f lockOrderFact
		if !pass.ImportFact(dep, &f) {
			continue
		}
		for k, locks := range f.Acquires {
			lo.imported[dep+"."+k] = locks
		}
		importedEdges = append(importedEdges, f.Edges...)
	}

	// Phase 1: per-function direct acquires and the local call graph,
	// then a fixpoint for transitive acquire sets.
	for fn, fd := range lo.decls {
		lo.collect(fn, fd)
	}
	lo.fixpoint()

	// Phase 2: walk every function tracking the held set, recording
	// edges (direct acquisitions and call-through acquisitions). Source
	// order, so the edge list — and the local edge a cycle report is
	// anchored to — is the same on every run.
	for _, fn := range declOrder(lo.decls) {
		lo.walk(fn, lo.decls[fn])
	}

	// Export this package's fact before reporting: the fact is the
	// graph, findings are derived views of it.
	fact := lockOrderFact{Acquires: make(map[string][]string)}
	for fn, locks := range lo.acquires {
		if len(locks) == 0 {
			continue
		}
		fact.Acquires[funcKey(fn)] = sortedKeys(locks)
	}
	fact.Edges = append(fact.Edges, lo.edges...)
	sort.Slice(fact.Edges, func(i, j int) bool {
		a, b := fact.Edges[i], fact.Edges[j]
		return a.From+a.To+a.Pos < b.From+b.To+b.Pos
	})
	if err := pass.ExportFact(fact); err != nil {
		return err
	}

	// Cycle detection over the visible union (imported ∪ local), but
	// report only cycles containing a local edge: the completing package
	// hears about it, dependencies that already reported their own
	// cycles are not echoed.
	reportLockCycles(pass, lo.edges, lo.edgePos, importedEdges)
	return nil
}

type lockOrderState struct {
	pass     *analysis.Pass
	decls    map[*types.Func]*ast.FuncDecl
	acquires map[*types.Func]map[string]bool // transitive acquire sets
	calls    map[*types.Func][]*types.Func   // local static call graph
	imported map[string][]string             // pkg-qualified funcKey -> acquires

	edges   []lockEdge
	edgePos map[int]token.Pos // index into edges -> source position
}

// lockKeyOf identifies the mutex behind the receiver of a Lock call, or
// "" when no stable module-wide identity exists (locals, temporaries).
func (lo *lockOrderState) lockKeyOf(recv ast.Expr) string {
	switch x := ast.Unparen(recv).(type) {
	case *ast.SelectorExpr:
		// Field mutex: key on the owning named type.
		if s, ok := lo.pass.TypesInfo.Selections[x]; ok {
			if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
				t := s.Recv()
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
					return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + v.Name()
				}
			}
			return ""
		}
		// Package-qualified global: pkg.mu.Lock().
		if v, ok := lo.pass.TypesInfo.Uses[x.Sel].(*types.Var); ok && !v.IsField() && v.Pkg() != nil {
			if v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name()
			}
		}
	case *ast.Ident:
		if v, ok := lo.pass.TypesInfo.Uses[x].(*types.Var); ok && v.Pkg() != nil {
			if v.Parent() == v.Pkg().Scope() { // package-level var
				return v.Pkg().Path() + "." + v.Name()
			}
		}
	}
	return ""
}

// lockCallOf classifies a call as a mutex operation, returning the lock
// key and the method name ("" key for unidentifiable locks).
func (lo *lockOrderState) lockCallOf(call *ast.CallExpr) (key, method string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	tv, ok := lo.pass.TypesInfo.Types[sel.X]
	if !ok || !isMutexType(tv.Type) {
		return "", ""
	}
	return lo.lockKeyOf(sel.X), sel.Sel.Name
}

// collect records fn's direct acquisitions and local static callees.
func (lo *lockOrderState) collect(fn *types.Func, fd *ast.FuncDecl) {
	direct := make(map[string]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, method := lo.lockCallOf(call); key != "" && isAcquire(method) {
			direct[key] = true
			return true
		}
		if callee, local := calleeOf(lo.pass, call); callee != nil {
			if local {
				if _, hasBody := lo.decls[callee]; hasBody {
					lo.calls[fn] = append(lo.calls[fn], callee)
				}
			} else if locks, ok := lo.imported[callee.Pkg().Path()+"."+funcKey(callee)]; ok {
				for _, l := range locks {
					direct[l] = true
				}
			}
		}
		return true
	})
	lo.acquires[fn] = direct
}

// fixpoint closes the acquire sets over the local call graph.
func (lo *lockOrderState) fixpoint() {
	for changed := true; changed; {
		changed = false
		for fn, callees := range lo.calls {
			set := lo.acquires[fn]
			for _, g := range callees {
				for l := range lo.acquires[g] {
					if !set[l] {
						set[l] = true
						changed = true
					}
				}
			}
		}
	}
}

// calleeAcquires returns the final transitive acquire set of a callee,
// local or imported.
func (lo *lockOrderState) calleeAcquires(callee *types.Func, local bool) []string {
	if local {
		return sortedKeys(lo.acquires[callee])
	}
	return lo.imported[callee.Pkg().Path()+"."+funcKey(callee)]
}

// walk records edges for fn with straight-line held tracking.
func (lo *lockOrderState) walk(fn *types.Func, fd *ast.FuncDecl) {
	qual := lo.pass.PkgPath + "." + funcKey(fn)
	lo.walkStmts(qual, fd.Body.List, map[string]bool{})
}

func (lo *lockOrderState) walkStmts(fn string, stmts []ast.Stmt, held map[string]bool) {
	for _, s := range stmts {
		lo.walkStmt(fn, s, held)
	}
}

func (lo *lockOrderState) walkStmt(fn string, s ast.Stmt, held map[string]bool) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		lo.walkStmts(fn, st.List, held)
	case *ast.IfStmt:
		if st.Init != nil {
			lo.walkStmt(fn, st.Init, held)
		}
		lo.scanExpr(fn, held, st.Cond, false)
		lo.walkStmt(fn, st.Body, copyHeld(held))
		if st.Else != nil {
			lo.walkStmt(fn, st.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if st.Init != nil {
			lo.walkStmt(fn, st.Init, held)
		}
		if st.Cond != nil {
			lo.scanExpr(fn, held, st.Cond, false)
		}
		lo.walkStmt(fn, st.Body, copyHeld(held))
	case *ast.RangeStmt:
		lo.scanExpr(fn, held, st.X, false)
		lo.walkStmt(fn, st.Body, copyHeld(held))
	case *ast.SwitchStmt:
		if st.Init != nil {
			lo.walkStmt(fn, st.Init, held)
		}
		if st.Tag != nil {
			lo.scanExpr(fn, held, st.Tag, false)
		}
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				lo.walkStmts(fn, cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				lo.walkStmts(fn, cc.Body, copyHeld(held))
			}
		}
	case *ast.SelectStmt:
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				lo.walkStmts(fn, cc.Body, copyHeld(held))
			}
		}
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to function end, which
		// the held set already says; deferred calls otherwise run after
		// the body, outside this walk's order. Skip.
	case *ast.GoStmt:
		// The spawned goroutine starts with an empty held set of its
		// own; its body is walked when its function is visited (for
		// literals the locks inside are instance-local anyway).
	case *ast.ExprStmt:
		lo.scanExpr(fn, held, st.X, true)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			lo.scanExpr(fn, held, e, false)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			lo.scanExpr(fn, held, e, false)
		}
	case *ast.LabeledStmt:
		lo.walkStmt(fn, st.Stmt, held)
	}
}

// scanExpr processes calls inside one expression in source order. Only
// top-level ExprStmt calls mutate the held set (mutex ops are statements
// in any sane code); nested calls still contribute call-through edges.
func (lo *lockOrderState) scanExpr(fn string, held map[string]bool, e ast.Expr, stmtCall bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, method := lo.lockCallOf(call); method != "" {
			if key == "" {
				return true
			}
			switch {
			case isAcquire(method):
				lo.addEdges(fn, held, []string{key}, call.Pos())
				if stmtCall {
					held[key] = true
				}
			default: // Unlock / RUnlock
				if stmtCall {
					delete(held, key)
				}
			}
			return true
		}
		if callee, local := calleeOf(lo.pass, call); callee != nil {
			if acq := lo.calleeAcquires(callee, local); len(acq) > 0 {
				lo.addEdges(fn, held, acq, call.Pos())
			}
		}
		return true
	})
}

// addEdges records held→acquired edges at pos.
func (lo *lockOrderState) addEdges(fn string, held map[string]bool, acquired []string, pos token.Pos) {
	for h := range held {
		for _, a := range acquired {
			if h == a {
				continue // same declaration: instance ordering is out of scope
			}
			if lo.edgePos == nil {
				lo.edgePos = make(map[int]token.Pos)
			}
			lo.edgePos[len(lo.edges)] = pos
			lo.edges = append(lo.edges, lockEdge{
				From: h,
				To:   a,
				Func: fn,
				Pos:  lo.pass.Fset.Position(pos).String(),
			})
		}
	}
}

func isAcquire(method string) bool {
	switch method {
	case "Lock", "RLock", "TryLock", "TryRLock":
		return true
	}
	return false
}

// reportLockCycles finds cycles in local ∪ imported edges and reports
// each once, anchored at the earliest local edge participating in it.
func reportLockCycles(pass *analysis.Pass, local []lockEdge, localPos map[int]token.Pos, imported []lockEdge) {
	succ := make(map[string]map[string]bool)
	add := func(e lockEdge) {
		if succ[e.From] == nil {
			succ[e.From] = make(map[string]bool)
		}
		succ[e.From][e.To] = true
	}
	for _, e := range local {
		add(e)
	}
	for _, e := range imported {
		add(e)
	}

	// For each local edge u→v, a path v→…→u closes a cycle. Dedup by
	// the cycle's canonical node-set signature.
	seen := make(map[string]bool)
	for i, e := range local {
		path := lockPath(succ, e.To, e.From)
		if path == nil {
			continue
		}
		cycle := append([]string{e.From}, path...) // From, To, ..., From
		sig := cycleSig(cycle)
		if seen[sig] {
			continue
		}
		seen[sig] = true
		pass.Reportf(localPos[i],
			"lock-order cycle: %s — acquiring %s while holding %s closes it; a schedule interleaving these acquisitions deadlocks",
			strings.Join(cycle, " -> "), shortLock(e.To), shortLock(e.From))
	}
}

// lockPath BFSes from src to dst, returning the node path [src, …, dst].
func lockPath(succ map[string]map[string]bool, src, dst string) []string {
	type qe struct {
		node string
		prev int
	}
	queue := []qe{{src, -1}}
	visited := map[string]bool{src: true}
	for i := 0; i < len(queue); i++ {
		cur := queue[i]
		if cur.node == dst {
			var rev []string
			for j := i; j != -1; j = queue[j].prev {
				rev = append(rev, queue[j].node)
			}
			path := make([]string, len(rev))
			for k, n := range rev {
				path[len(rev)-1-k] = n
			}
			return path
		}
		for next := range succ[cur.node] {
			if !visited[next] {
				visited[next] = true
				queue = append(queue, qe{next, i})
			}
		}
	}
	return nil
}

func cycleSig(nodes []string) string {
	set := make(map[string]bool)
	for _, n := range nodes {
		set[n] = true
	}
	return strings.Join(sortedKeys(set), "|")
}

// shortLock strips the module prefix for readable messages.
func shortLock(key string) string {
	return strings.TrimPrefix(key, "ghm/internal/")
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
