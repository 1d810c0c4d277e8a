package lint

import (
	"go/ast"
	"strconv"
	"strings"

	"ghm/internal/lint/analysis"
)

// cryptorandScope is the set of packages whose randomness is protocol
// randomness: the challenge ρ and tag τ strings whose unpredictability
// Theorems 3, 7 and 8 assume. Everything else (simulations, adversaries,
// experiments, the chaos harness) may use seeded math/rand freely.
var cryptorandScope = map[string]bool{
	"ghm":                  true, // public package: builds production stations
	"ghm/internal/core":    true, // the protocol machines themselves
	"ghm/internal/netlink": true, // stations over real links
	"ghm/internal/session": true, // supervised sessions over stations
}

// Cryptorand enforces that protocol-facing packages cannot draw
// randomness from math/rand: a predictable τ/ρ voids the ε guarantees,
// because the proofs bound the adversary's forgery probability by its
// inability to guess fresh bits. Randomness must flow through the
// injected Params.Source, which defaults to bitstr.NewCryptoSource.
var Cryptorand = &analysis.Analyzer{
	Name: "cryptorand",
	Doc: `forbid math/rand and bitstr.NewMathSource in protocol packages

The ε-bounds of Theorems 3, 7 and 8 hold only if challenge and tag bits
are unpredictable to the adversary. In ghm, ghm/internal/core,
ghm/internal/netlink and ghm/internal/session, importing math/rand (or
math/rand/v2) and constructing bitstr.NewMathSource are reported;
randomness flows only through the injected Params.Source, defaulting to
bitstr.NewCryptoSource. The deliberate deterministic mode (WithSeed)
carries a //lint:allow cryptorand directive.`,
	Run: runCryptorand,
}

func runCryptorand(pass *analysis.Pass) error {
	if !cryptorandScope[passPath(pass)] {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(),
					"import of %s in protocol package %s: protocol randomness must come from the injected Params.Source (crypto-quality by default); a predictable source voids the Theorem 3/7/8 ε-bounds",
					path, passPath(pass))
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := funcObjOf(pass.TypesInfo, call)
			if fn == nil || fn.Name() != "NewMathSource" || fn.Pkg() == nil {
				return true
			}
			if strings.HasSuffix(fn.Pkg().Path(), "/bitstr") || fn.Pkg().Path() == "bitstr" {
				pass.Reportf(call.Pos(),
					"bitstr.NewMathSource in protocol package %s: deterministic sources void the ε guarantees; inject via Params.Source only in tests and simulations",
					passPath(pass))
			}
			return true
		})
	}
	return nil
}
