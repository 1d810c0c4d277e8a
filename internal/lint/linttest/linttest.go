// Package linttest is the fixture harness for the ghmvet analyzers, in
// the image of golang.org/x/tools/go/analysis/analysistest but built on
// the standard library alone. A fixture is a directory of Go files under
// internal/lint/testdata/src; expected findings are written in the
// source as analysistest-style comments:
//
//	time.Sleep(d) // want "time.Sleep"
//
// where the quoted string is a regexp that must match a diagnostic
// reported on that line. Every diagnostic must be wanted and every want
// must be matched, so fixtures prove both that violations are flagged
// and that clean idioms are not.
//
// Fixtures import real module packages (ghm/internal/metrics,
// ghm/internal/engine, ...) so the analyzers' type-based matching is
// exercised against the genuine types: the harness type-checks fixtures
// with gc export data resolved through the loader, the same machinery
// the driver uses.
package linttest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"ghm/internal/lint"
	"ghm/internal/lint/analysis"
	"ghm/internal/lint/loader"
)

// wantRe extracts the expectation regexp from a comment. It matches
// inside larger comments too — line or block — so a //lint:allow
// directive can carry a want for its own unused-directive diagnostic,
// and a /* want */ block comment can precede a directive whose
// malformedness is itself the expectation.
var wantRe = regexp.MustCompile(`want "((?:[^"\\]|\\.)*)"`)

// exports resolves the whole module plus the standard library packages
// fixtures lean on, listed once per test process. A fixture that imports
// anything else fails with "no export data": add the package here.
var exports = sync.OnceValues(func() (loader.Exports, error) {
	return loader.ListExports("ghm/...", "time", "sync", "sync/atomic", "math/rand", "fmt", "strings", "context")
})

// expectation is one `// want` comment.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// Run type-checks the fixture directory testdata/src/<dir> (relative to
// the caller's package, i.e. internal/lint), runs the analyzers on it
// under pkgPath (what the path-scoped analyzers see), and asserts the
// diagnostics equal the fixture's want comments.
//
// Sub-directories of the fixture are dependency packages: each is
// type-checked and analyzed first (in sorted order, under its natural
// path "fixture/<dir>/<sub>") with the same fact store, so a fixture can
// import "fixture/<dir>/<sub>" and exercise the whole-program analyzers
// across a real package boundary. Want comments in dependency files are
// honored too.
func Run(t *testing.T, analyzers []*analysis.Analyzer, dir, pkgPath string) {
	t.Helper()

	exp, err := exports()
	if err != nil {
		t.Fatal(err)
	}

	root := filepath.Join("testdata", "src", dir)
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var subdirs []string
	for _, e := range entries {
		if e.IsDir() {
			subdirs = append(subdirs, e.Name())
		}
	}
	sort.Strings(subdirs)

	fset := token.NewFileSet()
	var wants []*expectation
	parseDir := func(dirPath string) []*ast.File {
		entries, err := os.ReadDir(dirPath)
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			path := filepath.Join(dirPath, e.Name())
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatalf("parse %s: %v", path, err)
			}
			files = append(files, f)
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", fset.Position(c.Pos()), m[1], err)
						}
						posn := fset.Position(c.Pos())
						wants = append(wants, &expectation{file: posn.Filename, line: posn.Line, re: re})
					}
				}
			}
		}
		return files
	}

	// The importer chain: fixture dependency packages (type-checked from
	// source below) first, then gc export data for real packages.
	local := make(map[string]*types.Package)
	gcImp := exp.Importer(fset)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := local[path]; ok {
			return p, nil
		}
		return gcImp.Import(path)
	})

	store := analysis.NewFactStore()
	var diags []analysis.Diagnostic
	check := func(files []*ast.File, importPath, override string) {
		t.Helper()
		if len(files) == 0 {
			t.Fatalf("no Go files for %s", importPath)
		}
		info := loader.NewInfo()
		conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", runtime.GOARCH)}
		pkg, err := conf.Check(importPath, fset, files, info)
		if err != nil {
			t.Fatalf("typecheck %s: %v", importPath, err)
		}
		local[importPath] = pkg

		lint.SetPkgPathOverrideForTest(override)
		defer lint.SetPkgPathOverrideForTest("")
		ds, err := analysis.Run(analyzers, analysis.Unit{
			Fset:  fset,
			Files: files,
			Pkg:   pkg,
			Info:  info,
			Facts: store,
			// The full suite's names, not the subset under test: fixtures
			// see the same unknown-analyzer directive check production does.
			Known: lint.KnownNames(),
		})
		if err != nil {
			t.Fatal(err)
		}
		diags = append(diags, ds...)
	}

	// Dependencies first (facts flow dep -> fixture), then the fixture
	// package itself under the caller's pkgPath override.
	for _, sub := range subdirs {
		check(parseDir(filepath.Join(root, sub)), "fixture/"+dir+"/"+sub, "")
	}
	check(parseDir(root), "fixture/"+dir, pkgPath)

	for _, d := range diags {
		posn := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if w.hit || w.file != posn.Filename || w.line != posn.Line || !w.re.MatchString(d.Message) {
				continue
			}
			w.hit = true
			matched = true
			break
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s: [%s] %s", posn, d.Analyzer, d.Message)
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
