package analysis

import (
	"encoding/json"
	"fmt"
	"sort"
)

// FactStore carries analyzer facts across package boundaries: each
// analyzer may export one JSON-encodable fact value per package, and
// analyzers running on a downstream package can import the facts of the
// packages they depend on. It is the minimal analogue of the
// x/tools/go/analysis fact mechanism, and it lives in memory only:
//
//   - the driver (lint.Check) analyzes packages in dependency order (the
//     order `go list -deps` emits) and threads one store through the
//     whole run, so every pass sees the facts of everything analyzed
//     before it;
//   - the linttest harness analyzes fixture sub-packages first and lets
//     the main fixture package import their facts.
type FactStore struct {
	m map[string]map[string]json.RawMessage // analyzer -> package path -> fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: make(map[string]map[string]json.RawMessage)}
}

func (s *FactStore) set(analyzer, pkgPath string, fact any) error {
	data, err := json.Marshal(fact)
	if err != nil {
		return fmt.Errorf("encoding %s fact for %s: %w", analyzer, pkgPath, err)
	}
	if s.m[analyzer] == nil {
		s.m[analyzer] = make(map[string]json.RawMessage)
	}
	s.m[analyzer][pkgPath] = data
	return nil
}

func (s *FactStore) get(analyzer, pkgPath string, out any) bool {
	data, ok := s.m[analyzer][pkgPath]
	if !ok {
		return false
	}
	return json.Unmarshal(data, out) == nil
}

// Packages returns the package paths holding a fact for analyzer, in
// deterministic (sorted) order.
func (s *FactStore) Packages(analyzer string) []string {
	var out []string
	for p := range s.m[analyzer] {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// ExportFact records fact as this package's fact for the running
// analyzer, replacing any previous export from the same pass.
func (p *Pass) ExportFact(fact any) error {
	if p.facts == nil {
		return nil // driver without fact support: exports evaporate
	}
	return p.facts.set(p.Analyzer.Name, p.PkgPath, fact)
}

// ImportFact decodes the named package's fact for the running analyzer
// into out, reporting whether one was present. Importing the current
// package's own (partial) fact is allowed but rarely useful.
func (p *Pass) ImportFact(pkgPath string, out any) bool {
	if p.facts == nil {
		return false
	}
	return p.facts.get(p.Analyzer.Name, pkgPath, out)
}

// FactPackages lists the packages whose facts are visible to the running
// analyzer, excluding the current package.
func (p *Pass) FactPackages() []string {
	if p.facts == nil {
		return nil
	}
	var out []string
	for _, pkg := range p.facts.Packages(p.Analyzer.Name) {
		if pkg != p.PkgPath {
			out = append(out, pkg)
		}
	}
	return out
}
