// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis framework, built only on the standard
// library because this repository takes no external dependencies. It
// defines the Analyzer/Pass/Diagnostic vocabulary the ghmvet suite is
// written against, plus the //lint:allow suppression directive shared by
// the driver (lint.Check, behind both cmd/ghmvet and TestModuleIsClean)
// and the linttest fixture harness.
//
// The deliberate omission relative to x/tools is the Requires graph:
// every ghmvet analyzer is a single per-package pass. Cross-package
// state flows through the FactStore (facts.go): an analyzer may export
// one JSON fact per package and import the facts of the packages
// analyzed before it, which is how the whole-program analyzers
// (lockorder, boundedqueue) see across package boundaries while the
// driver stays unit-at-a-time.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, flags and
	// //lint:allow directives. It must look like an identifier.
	Name string
	// Doc is a one-paragraph description: first line is a summary,
	// the rest explains the invariant the check enforces.
	Doc string
	// Run applies the analyzer to one package, reporting findings via
	// pass.Report/Reportf. A returned error aborts the whole run (it
	// means the analyzer itself failed, not that the code is bad).
	Run func(pass *Pass) error
}

// Pass presents one type-checked package to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// PkgPath is the canonical path facts are keyed under — always
	// Pkg.Path(), stored separately so fact plumbing never depends on
	// the path-scoping override the fixture harness plays with.
	PkgPath string

	facts      *FactStore
	directives []*directive
	report     func(Diagnostic)
}

// Allowed reports whether a //lint:allow directive for the running
// analyzer covers pos (same line or the line above). Fact computation
// must consult this: a site the author has deliberately allowed must
// not poison the facts other packages import (e.g. an allowed queue
// growth must not mark the whole function growing for its callers in
// other packages). A matching directive is marked used — honoring a
// directive during fact computation is as real a use as suppressing a
// reported diagnostic, and must not trip the stale-directive check.
func (p *Pass) Allowed(pos token.Pos) bool {
	posn := p.Fset.Position(pos)
	allowed := false
	for _, dir := range p.directives {
		if dir.analyzer != p.Analyzer.Name || dir.file != posn.Filename {
			continue
		}
		if dir.line == posn.Line || dir.line == posn.Line-1 {
			dir.used = true
			allowed = true
		}
	}
	return allowed
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Report emits a finding.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	p.report(d)
}

// Reportf emits a finding with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a _test.go file. The ghmvet
// analyzers enforce runtime and protocol invariants on production code;
// tests routinely (and legitimately) sleep, block and hand-roll metric
// names, so every analyzer exempts them uniformly through this helper.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.File(pos).Name(), "_test.go")
}

// directive is one parsed //lint:allow comment.
type directive struct {
	pos      token.Pos
	line     int
	file     string
	analyzer string
	reason   string
	used     bool
}

// AllowPrefix is the comment prefix of a suppression directive. The full
// form is:
//
//	//lint:allow <analyzer> <reason>
//
// It suppresses diagnostics of the named analyzer on the same line, or —
// when the directive stands on a line of its own — on the next line.
// The reason is mandatory: a suppression without a recorded why is how
// invariants rot. Directives that suppress nothing are themselves
// reported, so stale allowances cannot accumulate.
const AllowPrefix = "//lint:allow"

// parseDirectives extracts every //lint:allow directive from files.
// Malformed directives (missing analyzer or reason) are reported
// immediately via report.
func parseDirectives(fset *token.FileSet, files []*ast.File, report func(Diagnostic)) []*directive {
	var ds []*directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, AllowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, AllowPrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //lint:allowance — not ours
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					report(Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "lintdirective",
						Message:  "malformed directive: want //lint:allow <analyzer> <reason>",
					})
					continue
				}
				posn := fset.Position(c.Pos())
				ds = append(ds, &directive{
					pos:      c.Pos(),
					line:     posn.Line,
					file:     posn.Filename,
					analyzer: fields[0],
					reason:   strings.Join(fields[1:], " "),
				})
			}
		}
	}
	return ds
}

// Unit is one type-checked package handed to Run, plus the run-wide
// state that rides along with it.
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// Facts, when non-nil, lets analyzers import facts exported by
	// previously analyzed packages and export their own. A nil store
	// disables the cross-package layer (exports evaporate, imports come
	// back empty) — the per-package analyzers are unaffected.
	Facts *FactStore

	// Known lists every analyzer name the suite recognizes, independent
	// of the subset actually running. A //lint:allow directive naming an
	// analyzer outside this set is reported as malformed: it suppresses
	// nothing today and never will. Empty disables the check (fixture
	// harness runs that use private analyzer sets).
	Known []string
}

// Run applies every analyzer to one type-checked package and returns the
// surviving diagnostics, sorted by position: //lint:allow directives have
// been applied, unused directives naming an analyzer that ran are
// reported as findings in their own right, and directives naming an
// analyzer the suite has never heard of are malformed.
func Run(analyzers []*Analyzer, u Unit) ([]Diagnostic, error) {
	fset, files := u.Fset, u.Files
	var raw []Diagnostic
	collect := func(d Diagnostic) { raw = append(raw, d) }

	directives := parseDirectives(fset, files, collect)

	if len(u.Known) > 0 {
		known := make(map[string]bool, len(u.Known))
		for _, n := range u.Known {
			known[n] = true
		}
		for _, dir := range directives {
			if !known[dir.analyzer] {
				dir.used = true // don't double-report as unused below
				collect(Diagnostic{
					Pos:      dir.pos,
					Analyzer: "lintdirective",
					Message:  fmt.Sprintf("//lint:allow names unknown analyzer %q (see ghmvet -list)", dir.analyzer),
				})
			}
		}
	}

	ran := make(map[string]bool)
	for _, a := range analyzers {
		ran[a.Name] = true
		pass := &Pass{
			Analyzer:   a,
			Fset:       fset,
			Files:      files,
			Pkg:        u.Pkg,
			TypesInfo:  u.Info,
			PkgPath:    u.Pkg.Path(),
			facts:      u.Facts,
			directives: directives,
			report:     collect,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}

	// Apply suppressions: a directive covers diagnostics of its analyzer
	// on its own line and on the following line (for directives placed
	// above the offending statement).
	var kept []Diagnostic
	for _, d := range raw {
		posn := fset.Position(d.Pos)
		suppressed := false
		for _, dir := range directives {
			if dir.analyzer != d.Analyzer || dir.file != posn.Filename {
				continue
			}
			if dir.line == posn.Line || dir.line == posn.Line-1 {
				dir.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}

	// A directive that suppressed nothing — for an analyzer that
	// actually ran — is stale and must go.
	for _, dir := range directives {
		if !dir.used && ran[dir.analyzer] {
			kept = append(kept, Diagnostic{
				Pos:      dir.pos,
				Analyzer: dir.analyzer,
				Message:  fmt.Sprintf("unused //lint:allow %s directive (nothing to suppress here)", dir.analyzer),
			})
		}
	}

	sort.SliceStable(kept, func(i, j int) bool {
		if kept[i].Pos != kept[j].Pos {
			return kept[i].Pos < kept[j].Pos
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept, nil
}
