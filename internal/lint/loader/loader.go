// Package loader type-checks Go packages for the ghmvet driver and its
// fixture harness without golang.org/x/tools: it shells out to `go list
// -export -json -deps`, which compiles (or reuses from the build cache) gc
// export data for every dependency, then parses the target packages
// from source and type-checks them against that export data with the
// standard library's gc importer. The result is the same
// (*types.Package, *types.Info) view a go/packages LoadAllSyntax pass
// would produce for the targets — minus dependency syntax, which the
// ghmvet analyzers never need (they are strictly per-package).
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// Package is one type-checked target package.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Syntax     []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// NewInfo returns a types.Info with every map an analyzer might consult
// allocated, ready to hand to types.Config.Check.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// Exports maps an import path to the file holding its gc export data.
type Exports map[string]string

// list is the one place the tree shells out to `go list -export`: it
// returns the packages the patterns name and the export data of those
// and of everything they depend on.
func list(patterns []string) ([]*listPkg, Exports, error) {
	args := append([]string{"list", "-export", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}

	exports := make(Exports)
	var targets []*listPkg
	dec := json.NewDecoder(&stdout)
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			q := p
			targets = append(targets, &q)
		}
	}
	return targets, exports, nil
}

// ListExports returns the export data of the packages the patterns name
// and of their dependencies, for a caller (the fixture harness) that
// type-checks sources of its own against them.
func ListExports(patterns ...string) (Exports, error) {
	_, exports, err := list(patterns)
	return exports, err
}

// Importer returns a gc importer that reads from e.
func (e Exports) Importer(fset *token.FileSet) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := e[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
}

// Load resolves patterns (./..., import paths) to type-checked packages,
// in dependency order (the order `go list -deps` emits). Test files are
// not loaded: the ghmvet analyzers enforce invariants on production code
// and exempt _test.go files anyway.
func Load(patterns []string) ([]*Package, error) {
	targets, exports, err := list(patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := exports.Importer(fset)

	var out []*Package
	for _, t := range targets {
		if len(t.CgoFiles) > 0 {
			// No cgo in this module; if it ever appears, skipping beats
			// failing to parse generated code we cannot see.
			continue
		}
		pkg, err := check(fset, imp, t)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

func check(fset *token.FileSet, imp types.Importer, t *listPkg) (*Package, error) {
	var files []*ast.File
	for _, name := range t.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(t.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %v", path, err)
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	pkg, err := conf.Check(t.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", t.ImportPath, err)
	}
	return &Package{
		ImportPath: t.ImportPath,
		Fset:       fset,
		Syntax:     files,
		Types:      pkg,
		Info:       info,
	}, nil
}
