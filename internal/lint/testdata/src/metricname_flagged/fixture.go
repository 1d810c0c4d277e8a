// Fixture: the metricname analyzer must flag raw literals reaching the
// registry and constant names outside the family grammar.
package fixture

import (
	"fmt"

	"ghm/internal/metrics"
)

// offFamily is a declared constant, but not in a documented family.
const offFamily = "bogus.name"

// mixed has no literal at the call site but still fails the grammar.
const mixed = "tx.CamelCase"

// nearMiss is almost the adversary family, but the prefix must match
// exactly — "adversarial." is a fork, not a family member.
const nearMiss = "adversarial.attacks_mounted"

func register(reg *metrics.Registry, id int) {
	reg.Counter("tx.raw_literal")                      // want "metric name literal"
	reg.Gauge(offFamily)                               // want "does not match the family grammar"
	reg.Histogram(mixed)                               // want "does not match the family grammar"
	reg.Counter(nearMiss)                              // want "does not match the family grammar"
	reg.Counter(fmt.Sprintf("link.ep%d.dropped", id))  // want "metric name literal"
	reg.GaugeFuncSum("session.depth", func() float64 { // want "metric name literal"
		return 0
	})
}
