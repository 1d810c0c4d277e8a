package lint

import (
	"go/ast"
	"go/types"
	"sort"

	"ghm/internal/lint/analysis"
)

// runtimeScope is the set of packages boundedqueue reports in: the
// packages whose queues carry the runtime guarantees the theorems lean
// on. Simulation- and tooling-side packages are deliberately out of
// scope.
var runtimeScope = map[string]bool{
	"ghm/internal/engine":    true,
	"ghm/internal/netlink":   true,
	"ghm/internal/session":   true,
	"ghm/internal/supervise": true,
	"ghm/internal/relay":     true,
	"ghm/internal/fabric":    true,
}

// collectDecls indexes the package's function declarations (with bodies,
// production files only) by their type-checker object, the currency of
// every static call-graph walk below.
func collectDecls(pass *analysis.Pass) map[*types.Func]*ast.FuncDecl {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					decls[obj] = fd
				}
			}
		}
	}
	return decls
}

// declOrder returns the functions of a decls map in source order, so
// walks (and the diagnostics they anchor) are deterministic across runs
// instead of following map iteration.
func declOrder(decls map[*types.Func]*ast.FuncDecl) []*types.Func {
	out := make([]*types.Func, 0, len(decls))
	for fn := range decls {
		out = append(out, fn)
	}
	sort.Slice(out, func(i, j int) bool { return decls[out[i]].Pos() < decls[out[j]].Pos() })
	return out
}

// funcKey names a function inside its package the way facts refer to it:
// "Func" for package-level functions, "Type.Method" for methods (pointer
// and value receivers collapse). Cross-package references pair it with
// the package path.
func funcKey(f *types.Func) string {
	if n := recvNamed(f); n != nil {
		return n.Obj().Name() + "." + f.Name()
	}
	return f.Name()
}

// calleeOf resolves one call expression to a static callee with a
// declared body in this package (decls) or to a cross-package function
// (returned with pkg path for fact lookup). Dynamic calls — function
// values, interface methods — resolve to nothing: the whole-program
// analyzers treat them as opaque, which is a documented soundness trade.
func calleeOf(pass *analysis.Pass, call *ast.CallExpr) (fn *types.Func, local bool) {
	f := funcObjOf(pass.TypesInfo, call)
	if f == nil || f.Pkg() == nil {
		return nil, false
	}
	// Methods of generic types resolve to per-instantiation objects; the
	// declaration (and the fact key) lives on the generic origin.
	f = f.Origin()
	// Interface methods have no body anywhere; skip them.
	if n := recvNamed(f); n != nil {
		if _, isIface := n.Underlying().(*types.Interface); isIface {
			return nil, false
		}
	}
	return f, f.Pkg() == pass.Pkg
}
