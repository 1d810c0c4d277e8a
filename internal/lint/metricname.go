package lint

import (
	"go/ast"
	"go/constant"
	"regexp"

	"ghm/internal/lint/analysis"
)

// metricFamilyGrammar is the documented metric-name grammar: a family
// prefix (tx., rx., link., chaos., session., relay., adversary.)
// followed by snake_case segments. A name built at runtime from declared
// constant parts (a family prefix, an id and a suffix, say) falls outside
// the constant check; the literal check still covers its building blocks.
var metricFamilyGrammar = regexp.MustCompile(`^(tx|rx|link|chaos|session|relay|adversary)\.[a-z0-9_]+(\.[a-z0-9_]+)*$`)

// metricRegistryMethods are the Registry entry points whose name
// argument the analyzer vets.
var metricRegistryMethods = map[string]bool{
	"Counter":      true,
	"Gauge":        true,
	"GaugeFuncSum": true,
	"Histogram":    true,
}

// MetricName enforces that every name reaching the metrics registry is
// built from declared constants in the documented family grammar. The
// registry creates metrics on first use, so a typo'd name does not fail
// — it silently forks a second counter and both report partial truths.
// Named constants make the full metric namespace greppable and diffable;
// the grammar check keeps families consistent so dashboards and the
// soak's injected-vs-observed cross-checks can rely on prefixes.
var MetricName = &analysis.Analyzer{
	Name: "metricname",
	Doc: `metric names must be declared constants matching the family grammar

Every string reaching Registry.Counter/Gauge/GaugeFuncSum/Histogram must be
composed of declared string constants (no raw literals at the call), and
when the full name is a compile-time constant it must match
(tx|rx|link|chaos|session|relay|adversary).snake_case. Raw literals
silently fork
a counter on the first typo; constants make the namespace greppable.`,
	Run: runMetricName,
}

func runMetricName(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := funcObjOf(pass.TypesInfo, call)
			if fn == nil || !metricRegistryMethods[fn.Name()] {
				return true
			}
			if !isMethodOf(fn, "ghm/internal/metrics", "Registry", fn.Name()) {
				return true
			}
			arg := call.Args[0]

			// Rule 1: no raw string literals anywhere in the name
			// expression — names are assembled from named constants.
			ast.Inspect(arg, func(m ast.Node) bool {
				if lit, ok := m.(*ast.BasicLit); ok {
					if tv, ok := pass.TypesInfo.Types[lit]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
						pass.Reportf(lit.Pos(),
							"metric name literal %s passed to Registry.%s: declare it as a named constant (a typo here silently forks the metric)",
							lit.Value, fn.Name())
					}
				}
				return true
			})

			// Rule 2: when the whole name is a compile-time constant,
			// it must belong to a documented family.
			if tv, ok := pass.TypesInfo.Types[arg]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
				name := constant.StringVal(tv.Value)
				if !metricFamilyGrammar.MatchString(name) {
					pass.Reportf(arg.Pos(),
						"metric name %q does not match the family grammar (tx|rx|link|chaos|session|relay|adversary).snake_case",
						name)
				}
			}
			return true
		})
	}
	return nil
}
