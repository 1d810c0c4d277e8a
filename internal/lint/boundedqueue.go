package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"ghm/internal/lint/analysis"
)

// BoundedQueue enforces the runtime's bounded-memory discipline. The
// protocol's backpressure story is shedding-as-loss: every queue in the
// runtime has a hard capacity, and when it fills the excess is dropped
// and *accounted for* (a drop/shed metric), because the fault model
// already prices loss in. An unbounded queue converts overload into
// unbounded memory growth instead — a failure mode outside the model.
//
// Two rules, checked in the runtime packages:
//
//   - every channel must be created with a statically bounded capacity:
//     a constant, or an expression built from configuration fields and
//     arithmetic. A capacity computed through a function call (or any
//     other dynamic construct) is flagged — the bound must be auditable
//     at the make site;
//
//   - every append that grows a struct field on a handler path (a
//     function reachable from a SetHandler/AfterFunc registration,
//     transitively through static calls, across packages via facts)
//     must sit in a function that both checks the buffer's occupancy
//     (len/cap of that field) and references a drop/shed accounting
//     name — the shape of "if full: drop, count, return".
//
// Queues whose bound lives elsewhere (enforced by the producer, or by a
// windowing invariant) carry //lint:allow boundedqueue naming where the
// cap is enforced.
var BoundedQueue = &analysis.Analyzer{
	Name: "boundedqueue",
	Doc: `runtime queues are capacity-bounded and shed with accounting

Channels in ghm/internal/{engine,netlink,session,supervise,relay}
must have statically bounded capacity (constant or config arithmetic —
no function calls in the capacity expression). Appends that grow struct
fields on handler paths must pair with an occupancy check (len/cap of
the field) and a drop/shed accounting reference in the same function.`,
	Run: runBoundedQueue,
}

// shedRe matches the accounting vocabulary: a handler that sheds names
// the fact in a metric or branch (link.*_dropped, shedCount, evict...).
var shedRe = regexp.MustCompile(`(?i)(drop|shed|evict|discard|overflow)`)

// boundedQueueFact records, per function, the struct-field growth sites
// that lack the bound+shed shape, so handler paths crossing package
// boundaries can still be audited.
type boundedQueueFact struct {
	Grows map[string][]string `json:"grows,omitempty"` // funcKey -> descriptions
}

func runBoundedQueue(pass *analysis.Pass) error {
	bq := &boundedQueueState{
		pass:  pass,
		decls: collectDecls(pass),
		grows: make(map[*types.Func][]growSite),
		calls: make(map[*types.Func][]*types.Func),
		forn:  make(map[*types.Func]map[*types.Func]ast.Node),
		trans: make(map[*types.Func][]string),
	}
	for fn, fd := range bq.decls {
		bq.collect(fn, fd)
	}
	bq.closeTrans()

	out := boundedQueueFact{Grows: make(map[string][]string)}
	for fn, descs := range bq.trans {
		if len(descs) > 0 {
			out.Grows[funcKey(fn)] = descs
		}
	}
	if err := pass.ExportFact(out); err != nil {
		return err
	}

	// Rule A: channel capacities, in runtime packages only.
	if runtimeScope[passPath(pass)] {
		for _, f := range pass.Files {
			if pass.InTestFile(f.Pos()) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := ast.Unparen(call.Fun).(*ast.Ident)
				if !ok || pass.TypesInfo.Uses[id] != types.Universe.Lookup("make") {
					return true
				}
				if len(call.Args) == 0 {
					return true
				}
				tv, ok := pass.TypesInfo.Types[call.Args[0]]
				if !ok {
					return true
				}
				if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
					return true
				}
				if len(call.Args) < 2 {
					return true // unbuffered: capacity 0 is a bound
				}
				if !staticallyBounded(pass.TypesInfo, call.Args[1]) {
					pass.Reportf(call.Args[1].Pos(),
						"channel capacity is not statically bounded: %q computes the bound dynamically — runtime queues carry an auditable cap (constant or config arithmetic); hoist the computation into configuration (or //lint:allow boundedqueue naming where the bound is enforced)",
						exprKey(call.Args[1]))
				}
				return true
			})
		}
	}

	// Rule B: unbounded field growth reachable from handler roots.
	roots := handlerRoots(pass, bq.decls)
	visited := make(map[*types.Func]bool)
	var visit func(fn *types.Func)
	visit = func(fn *types.Func) {
		if fn == nil || visited[fn] {
			return
		}
		visited[fn] = true
		for _, g := range bq.grows[fn] {
			pass.Reportf(g.pos,
				"%s grows on a handler path without the bound+shed shape in %s: %s; bounded queues check occupancy (len/cap of the buffer) and account for what they drop (a drop/shed metric) in the same function",
				g.desc, funcKey(fn), g.missing)
		}
		for callee, at := range bq.forn[fn] {
			var f boundedQueueFact
			if pass.ImportFact(callee.Pkg().Path(), &f) {
				if descs := f.Grows[funcKey(callee)]; len(descs) > 0 {
					pass.Reportf(at.Pos(),
						"handler-path call to %s.%s, which grows %s without the bound+shed shape per its package fact",
						callee.Pkg().Path(), funcKey(callee), descs[0])
				}
			}
		}
		for _, callee := range bq.calls[fn] {
			visit(callee)
		}
	}
	for _, r := range roots {
		if r.fn != nil {
			visit(r.fn)
		} else if r.body != nil {
			// Literal handler: treat its body like an anonymous function.
			bq.scanLiteral(r.body, visit)
		}
	}
	return nil
}

type growSite struct {
	pos     token.Pos
	desc    string
	missing string
}

type boundedQueueState struct {
	pass  *analysis.Pass
	decls map[*types.Func]*ast.FuncDecl
	grows map[*types.Func][]growSite
	calls map[*types.Func][]*types.Func
	forn  map[*types.Func]map[*types.Func]ast.Node
	trans map[*types.Func][]string // transitive growth descriptions
}

// collect finds fn's unguarded field-append sites and its callees.
func (bq *boundedQueueState) collect(fn *types.Func, fd *ast.FuncDecl) {
	for _, g := range fieldGrowth(bq.pass, fd.Body) {
		if !bq.pass.Allowed(g.pos) {
			bq.grows[fn] = append(bq.grows[fn], g)
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee, local := calleeOf(bq.pass, call)
		if callee == nil {
			return true
		}
		if local {
			if _, hasBody := bq.decls[callee]; hasBody {
				bq.calls[fn] = append(bq.calls[fn], callee)
			}
		} else {
			if bq.forn[fn] == nil {
				bq.forn[fn] = make(map[*types.Func]ast.Node)
			}
			bq.forn[fn][callee] = call
		}
		return true
	})
}

// closeTrans computes each function's transitive growth descriptions by
// reachability over the local call graph (recursion-safe), folding in
// imported facts for cross-package callees.
func (bq *boundedQueueState) closeTrans() {
	for fn := range bq.decls {
		var out []string
		seenLocal := map[*types.Func]bool{fn: true}
		seenForeign := map[*types.Func]bool{}
		work := []*types.Func{fn}
		for len(work) > 0 {
			g := work[len(work)-1]
			work = work[:len(work)-1]
			for _, s := range bq.grows[g] {
				out = append(out, s.desc)
			}
			for callee := range bq.forn[g] {
				if seenForeign[callee] {
					continue
				}
				seenForeign[callee] = true
				var f boundedQueueFact
				if bq.pass.ImportFact(callee.Pkg().Path(), &f) {
					out = append(out, f.Grows[funcKey(callee)]...)
				}
			}
			for _, callee := range bq.calls[g] {
				if !seenLocal[callee] {
					seenLocal[callee] = true
					work = append(work, callee)
				}
			}
		}
		bq.trans[fn] = out
	}
}

// scanLiteral handles a handler registered as a function literal: its
// own field appends and the functions it calls.
func (bq *boundedQueueState) scanLiteral(body *ast.BlockStmt, visit func(*types.Func)) {
	for _, g := range fieldGrowth(bq.pass, body) {
		if !bq.pass.Allowed(g.pos) {
			bq.pass.Reportf(g.pos,
				"%s grows on a handler path without the bound+shed shape in handler literal: %s; bounded queues check occupancy and account for drops in the same function",
				g.desc, g.missing)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee, local := calleeOf(bq.pass, call); callee != nil && local {
			visit(callee)
		}
		return true
	})
}

// fieldGrowth finds `x.f = append(x.f, …)` sites in body whose enclosing
// function lacks the bound+shed shape, describing what is missing.
func fieldGrowth(pass *analysis.Pass, body *ast.BlockStmt) []growSite {
	info := pass.TypesInfo

	// The function-level evidence: len/cap applied to which exprs, and
	// whether any shed-vocabulary name appears.
	occupancy := make(map[string]bool)
	shed := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && len(x.Args) == 1 {
				obj := info.Uses[id]
				if obj == types.Universe.Lookup("len") || obj == types.Universe.Lookup("cap") {
					occupancy[exprKey(x.Args[0])] = true
				}
			}
		case *ast.Ident:
			if shedRe.MatchString(x.Name) {
				shed = true
			}
		}
		return true
	})

	var out []growSite
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				continue
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || info.Uses[id] != types.Universe.Lookup("append") {
				continue
			}
			lhsSel, ok := ast.Unparen(as.Lhs[i]).(*ast.SelectorExpr)
			if !ok {
				continue // locals grow on the stack of one call; not a queue
			}
			sel, ok := info.Selections[lhsSel]
			if !ok {
				continue
			}
			v, ok := sel.Obj().(*types.Var)
			if !ok || !v.IsField() {
				continue
			}
			if localConstruction(info, body, lhsSel) {
				continue // building a value-typed local result, not a queue
			}
			if exprKey(call.Args[0]) != exprKey(as.Lhs[i]) {
				continue // not self-growth; plain construction
			}
			key := exprKey(as.Lhs[i])
			var missing string
			switch {
			case !occupancy[key] && !shed:
				missing = "no len/cap occupancy check on " + key + " and no drop/shed accounting in this function"
			case !occupancy[key]:
				missing = "no len/cap occupancy check on " + key + " in this function"
			case !shed:
				missing = "no drop/shed accounting reference in this function"
			default:
				continue // bounded and accounted: the sanctioned shape
			}
			out = append(out, growSite{pos: call.Pos(), desc: "buffer " + key, missing: missing})
		}
		return true
	})
	return out
}

// localConstruction reports whether a field selection is rooted in a
// value-typed variable declared inside this body: growing a field of a
// local result struct (out.Packets = append(out.Packets, …)) builds an
// output that dies or is returned with the call — it is not a queue
// that accumulates across handler invocations. A pointer-typed root, a
// parameter, a receiver or a package-level variable all reach state
// that outlives the call and stay in scope.
func localConstruction(info *types.Info, body *ast.BlockStmt, sel *ast.SelectorExpr) bool {
	root := sel.X
	for {
		switch x := ast.Unparen(root).(type) {
		case *ast.SelectorExpr:
			root = x.X
			continue
		case *ast.Ident:
			v, ok := info.Uses[x].(*types.Var)
			if !ok || v.IsField() {
				return false
			}
			if v.Pos() < body.Pos() || v.Pos() > body.End() {
				return false // parameter, receiver or outer variable
			}
			_, isPtr := v.Type().Underlying().(*types.Pointer)
			return !isPtr
		default:
			return false
		}
	}
}

// staticallyBounded reports whether a channel-capacity expression is
// auditable at the make site: constants, identifiers, field selections
// and arithmetic over them. Function calls (other than conversions) and
// anything stranger make the bound dynamic.
func staticallyBounded(info *types.Info, e ast.Expr) bool {
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		return true // untyped or declared constant
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		return true
	case *ast.Ident:
		return true // a named value: constant, config local, parameter
	case *ast.SelectorExpr:
		return true // cfg.Buffer and friends
	case *ast.BinaryExpr:
		return staticallyBounded(info, x.X) && staticallyBounded(info, x.Y)
	case *ast.UnaryExpr:
		return staticallyBounded(info, x.X)
	case *ast.CallExpr:
		// A type conversion keeps the bound auditable; a real call hides it.
		if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return staticallyBounded(info, x.Args[0])
		}
		return false
	}
	return false
}

// handlerRoot is one SetHandler/AfterFunc registration target.
type handlerRoot struct {
	fn   *types.Func
	body *ast.BlockStmt // literal body when fn is nil
}

// handlerRoots collects the functions registered as push handlers or
// wheel callbacks in this package — the entry points of handler paths.
func handlerRoots(pass *analysis.Pass, decls map[*types.Func]*ast.FuncDecl) []handlerRoot {
	info := pass.TypesInfo
	var roots []handlerRoot
	add := func(arg ast.Expr) {
		switch a := ast.Unparen(arg).(type) {
		case *ast.FuncLit:
			roots = append(roots, handlerRoot{body: a.Body})
		case *ast.Ident:
			if fn, ok := info.Uses[a].(*types.Func); ok {
				roots = append(roots, handlerRoot{fn: fn})
			}
		case *ast.SelectorExpr:
			if fn, ok := info.Uses[a.Sel].(*types.Func); ok {
				roots = append(roots, handlerRoot{fn: fn})
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
				add(call.Args[0])
			case isMethodOf(fn, "ghm/internal/engine", "Wheel", "AfterFunc") && len(call.Args) == 2:
				add(call.Args[1])
			}
			return true
		})
	}
	return roots
}
