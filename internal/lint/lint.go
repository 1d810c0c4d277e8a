// Package lint holds the ghmvet analyzers: project-specific invariants
// of the GHM protocol and its runtime, encoded as mechanical checks in
// the go vet / staticcheck tradition. The protocol's ε-bounds (Theorems
// 3, 7, 8) and the engine's liveness rules hold only while code keeps a
// handful of disciplines that no general-purpose tool knows about;
// these analyzers make them machine-checkable instead of folklore.
//
// The six analyzers, and what each protects — each an invariant no
// test or benchmark pins (DESIGN §5 has the table; allocation-freedom
// and goroutine lifetime are not here because tests that count
// allocations and read the goroutine dump enforce them):
//
//   - cryptorand: protocol randomness is crypto-quality (Theorems 3/7/8)
//   - wheelclock: retries ride the shared timer wheel, not runtime timers
//   - nonblockinghandler: engine push handlers shed, they never block
//   - metricname: metric names are declared constants in the family grammar
//   - lockorder: the module-wide lock-order graph is acyclic (no deadlocks)
//   - boundedqueue: runtime queues are capacity-bounded and shed with accounting
//
// The last two are whole-program: they export per-package facts
// through the analysis.FactStore and read the facts of the packages
// they depend on, so a lock edge taken in internal/relay and its
// inverse taken in internal/supervise still meet in one graph.
//
// Check is the one driver: cmd/ghmvet calls it on the patterns it is
// given and TestModuleIsClean calls it on ghm/..., so `go test ./...`
// fails on a finding.
//
// All analyzers exempt _test.go files and honor the //lint:allow
// directive (see the analysis package).
package lint

import (
	"fmt"
	"go/ast"
	"go/types"

	"ghm/internal/lint/analysis"
	"ghm/internal/lint/loader"
)

// All returns the full ghmvet suite in reporting order: the four
// per-package analyzers, then the whole-program pair that rides the
// cross-package fact store.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Cryptorand,
		Wheelclock,
		NonblockingHandler,
		MetricName,
		LockOrder,
		BoundedQueue,
	}
}

// Check loads the packages the patterns name, runs the analyzers over
// them in dependency order with one fact store threaded through, and
// returns every surviving finding as "file:line:col: [analyzer] message".
// An error means the run itself failed, not that the code is bad.
func Check(analyzers []*analysis.Analyzer, patterns []string) ([]string, error) {
	pkgs, err := loader.Load(patterns)
	if err != nil {
		return nil, err
	}
	var findings []string
	store, known := analysis.NewFactStore(), KnownNames()
	for _, pkg := range pkgs {
		diags, err := analysis.Run(analyzers, analysis.Unit{
			Fset:  pkg.Fset,
			Files: pkg.Syntax,
			Pkg:   pkg.Types,
			Info:  pkg.Info,
			Facts: store,
			Known: known,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pkg.ImportPath, err)
		}
		for _, d := range diags {
			findings = append(findings, fmt.Sprintf("%s: [%s] %s", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message))
		}
	}
	return findings, nil
}

// KnownNames returns every analyzer name the suite recognizes, for the
// unknown-directive check: a //lint:allow naming anything outside this
// list is malformed.
func KnownNames() []string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return names
}

// ByName resolves analyzer names to analyzers; unknown names are
// dropped. It backs the subset-selection flags of cmd/ghmvet.
func ByName(names []string) []*analysis.Analyzer {
	var out []*analysis.Analyzer
	for _, n := range names {
		for _, a := range All() {
			if a.Name == n {
				out = append(out, a)
			}
		}
	}
	return out
}

// pkgPathOverride lets the fixture harness type-check testdata packages
// under the real package paths the path-scoped analyzers (cryptorand,
// wheelclock) key on. Empty means: use pass.Pkg.Path() as-is.
//
// It is process-global and set only by linttest; Check never touches
// it. Keeping it here (not exported from analysis) confines the hack to
// the lint tree.
var pkgPathOverride string

// SetPkgPathOverrideForTest overrides the package path the path-scoped
// analyzers see. For the fixture harness only.
func SetPkgPathOverrideForTest(path string) { pkgPathOverride = path }

// passPath returns the package path an analyzer should scope on.
func passPath(pass *analysis.Pass) string {
	if pkgPathOverride != "" {
		return pkgPathOverride
	}
	return pass.Pkg.Path()
}

// funcObjOf resolves a call expression's static callee, or nil for
// dynamic calls (function values, interface methods).
func funcObjOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// recvNamed returns the named type of a method's receiver (through one
// pointer), or nil.
func recvNamed(f *types.Func) *types.Named {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isMethodOf reports whether f is a method named name on type
// pkgPath.typeName (value or pointer receiver).
func isMethodOf(f *types.Func, pkgPath, typeName, name string) bool {
	if f == nil || f.Name() != name {
		return false
	}
	n := recvNamed(f)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == typeName
}
