package chaos

import (
	"ghm/internal/clock"
	"ghm/internal/fabric"
	"ghm/internal/metrics"
	"ghm/internal/netlink"
)

// SoakLink is one direction of a chaos link as a soak consumes it: the
// conn a station sends on, the runtime controls the fault timeline
// drives, and the fate counters for the result. netlink.ImpairedConn and
// fabric.Port both are one.
type SoakLink interface {
	netlink.PacketConn
	Controllable
	Stats() netlink.ImpairStats
}

// SoakLinks is one bidirectional chaos link: the sender-side (TR) and
// receiver-side (RT) ends.
type SoakLinks struct{ TR, RT SoakLink }

// LinkBuilder builds a soak's link pair for a scenario. Implementations
// must honor the scenario's link impairments and seed so runs stay
// reproducible, and must put any internal pacing on clk.
type LinkBuilder func(sc Scenario, reg *metrics.Registry, clk clock.Clock) (SoakLinks, error)

// impairedPipe is the link every soak runs on by default: a perfect
// in-process pipe with spec on a seeded impairment stage at each end.
// Everything a scenario can inject or ramp lives in those stages, where
// it is counted under reg's "link." prefix (both directions share it:
// link totals) — so injected faults stay cross-checkable against the
// link.* metrics, and a scheduled SetLoss restore of the nominal loss
// lands on the knob the nominal loss started on.
func impairedPipe(spec LinkSpec, seed int64, reg *metrics.Registry, clk clock.Clock) (a, b *netlink.ImpairedConn) {
	pa, pb := netlink.Pipe(netlink.PipeConfig{Clock: clk})
	ic := netlink.ImpairConfig{LinkModel: spec, Seed: seed, Clock: clk, Metrics: reg, MetricsPrefix: "link"}
	a = netlink.Impair(pa, ic)
	ic.Seed++
	return a, netlink.Impair(pb, ic)
}

// pipeLinks is the default LinkBuilder: impairedPipe on the scenario's
// profile and seed.
func pipeLinks(sc Scenario, reg *metrics.Registry, clk clock.Clock) (SoakLinks, error) {
	a, b := impairedPipe(sc.Link, sc.Seed+1, reg, clk)
	return SoakLinks{TR: a, RT: b}, nil
}

// FabricLinks is a LinkBuilder backed by the in-memory fabric: the same
// link model as the default pipe, run by the fabric's driver — no
// goroutines of its own, every delivery a clock event. Under a
// *clock.Virtual the whole link runs in virtual time, which is what the
// differential tests exercise: a scenario soaked on real pipes and on
// the virtual fabric must deliver the same payloads and verify equally
// clean.
func FabricLinks(sc Scenario, reg *metrics.Registry, clk clock.Clock) (SoakLinks, error) {
	f := fabric.New(fabric.Config{Clock: clk, Seed: sc.Seed + 1})
	a, b := f.Link(fabric.LinkConfig{LinkModel: sc.Link})
	return SoakLinks{TR: a, RT: b}, nil
}
