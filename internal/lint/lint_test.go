package lint_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"ghm/internal/lint"
	"ghm/internal/lint/analysis"
	"ghm/internal/lint/linttest"
)

// TestModuleIsClean is the suite's enforcement: the driver cmd/ghmvet
// wraps, run over the whole module inside `go test ./...`. The fixture
// tests below prove the analyzers bite; this proves the tree is clean.
func TestModuleIsClean(t *testing.T) {
	findings, err := lint.Check(lint.All(), []string{"ghm/..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// Each analyzer is proven twice: a flagged fixture where every
// violation carries a `// want` expectation, and a clean fixture where
// the same shapes done right produce zero diagnostics. The harness
// asserts both directions — no missing findings, no false positives.

func TestCryptorand(t *testing.T) {
	a := []*analysis.Analyzer{lint.Cryptorand}
	// Scoped analyzer: the flagged fixture runs under a protocol
	// package path, the clean one under an exempt path with the very
	// same constructs.
	linttest.Run(t, a, "cryptorand_flagged", "ghm/internal/core")
	linttest.Run(t, a, "cryptorand_clean", "ghm/internal/chaos")
}

func TestWheelclock(t *testing.T) {
	a := []*analysis.Analyzer{lint.Wheelclock}
	linttest.Run(t, a, "wheelclock_flagged", "ghm/internal/netlink")
	linttest.Run(t, a, "wheelclock_clean", "ghm/internal/experiments")
}

func TestNonblockingHandler(t *testing.T) {
	a := []*analysis.Analyzer{lint.NonblockingHandler}
	linttest.Run(t, a, "nonblocking_flagged", "")
	linttest.Run(t, a, "nonblocking_clean", "")
}

func TestMetricName(t *testing.T) {
	a := []*analysis.Analyzer{lint.MetricName}
	linttest.Run(t, a, "metricname_flagged", "")
	linttest.Run(t, a, "metricname_clean", "")
}

func TestAllowDirective(t *testing.T) {
	a := []*analysis.Analyzer{lint.Wheelclock}
	// Used directives silence the named analyzer on their line and the
	// next; the fixture expects zero diagnostics.
	linttest.Run(t, a, "allow_used", "ghm/internal/netlink")
	// Unused, malformed and unknown-analyzer directives are findings
	// themselves.
	linttest.Run(t, a, "allow_unused", "ghm/internal/netlink")
}

func TestLockOrder(t *testing.T) {
	a := []*analysis.Analyzer{lint.LockOrder}
	// lockorder is not path-scoped: the graph spans the whole module.
	linttest.Run(t, a, "lockorder_flagged", "")
	linttest.Run(t, a, "lockorder_clean", "")
	// The cycle spans a package boundary and only closes via the dep
	// package's imported facts — no single package's own edges contain it.
	linttest.Run(t, a, "lockorder_xpkg", "")
}

func TestBoundedQueue(t *testing.T) {
	a := []*analysis.Analyzer{lint.BoundedQueue}
	linttest.Run(t, a, "boundedqueue_flagged", "ghm/internal/relay")
	linttest.Run(t, a, "boundedqueue_clean", "ghm/internal/relay")
}

// TestNewAnalyzerAllows proves each whole-program analyzer honors
// //lint:allow — including consumption at fact-computation time, which
// must both silence the finding and count as use — and that a stale
// directive for each is reported.
func TestNewAnalyzerAllows(t *testing.T) {
	linttest.Run(t, []*analysis.Analyzer{lint.LockOrder}, "lockorder_allow", "")
	linttest.Run(t, []*analysis.Analyzer{lint.BoundedQueue}, "boundedqueue_allow", "ghm/internal/relay")
}

// TestAllowInventory pins the module's production //lint:allow
// population, per analyzer. The inventory (each directive and its
// justification) lives in DESIGN.md; this test fails when a directive
// is added or removed without the inventory — and this pin — moving
// with it. Directives are counted exactly the way the framework parses
// them: real comments only, so mentions inside strings or prose don't
// drift the count.
func TestAllowInventory(t *testing.T) {
	want := map[string]int{
		"cryptorand":         2,
		"nonblockinghandler": 1,
	}

	got := make(map[string]int)
	fset := token.NewFileSet()
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "testdata", ".git":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, analysis.AllowPrefix)
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				if fields := strings.Fields(rest); len(fields) >= 2 {
					got[fields[0]]++
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for a, n := range want {
		if got[a] != n {
			t.Errorf("//lint:allow %s count = %d, pinned %d — update DESIGN.md's allow inventory and this pin together", a, got[a], n)
		}
	}
	for a, n := range got {
		if _, ok := want[a]; !ok {
			t.Errorf("unpinned //lint:allow %s directives (%d) — add the analyzer to the inventory pin", a, n)
		}
	}
}
