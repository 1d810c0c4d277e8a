// Package chaos soaks the live runtime under the paper's one fault
// model: a seeded Scenario loses, duplicates and reorders packets on an
// impaired link (Gilbert–Elliott burst loss, latency, jitter), and its
// timeline crashes stations, blacks links out, ramps their loss, wedges
// a sender's link view and crashes whole relay nodes, while an optional
// adaptive attacker-in-the-middle rides on top.
//
// Run executes one scenario and is the package's only runner. The
// scenario alone decides the experiment: a Mesh spec makes it a
// five-node relay mesh; otherwise it is one link, with the attacker
// mounted when it carries an Adversary spec and the sender run under
// the self-healing session supervisor when it schedules a WedgeSender.
// Every run feeds the stations' event taps into verify.Live checkers, so
// it doubles as a mechanical check of the paper's Section 2.6
// conditions, and Result.Err states the family's verdict.
//
// A Scenario is a pure function of its seed (Generate, GenerateAdversary,
// GenerateMesh), serializes to JSON, and replays from that file alone
// (cmd/ghmsoak -scenario).
package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"ghm/internal/clock"
	"ghm/internal/metrics"
	"ghm/internal/netlink"
)

// ActionKind names one scheduled chaos action.
type ActionKind string

// The chaos actions a scenario may schedule.
const (
	// CrashSender erases the transmitting station's memory (crash^T).
	CrashSender ActionKind = "crash_sender"
	// CrashReceiver erases the receiving station's memory (crash^R).
	CrashReceiver ActionKind = "crash_receiver"
	// BlackoutStart fully partitions every link.
	BlackoutStart ActionKind = "blackout_start"
	// BlackoutEnd lifts the partition.
	BlackoutEnd ActionKind = "blackout_end"
	// SetLoss replaces every link's i.i.d. loss probability with Loss.
	SetLoss ActionKind = "set_loss"
	// WedgeSender half-kills the sending station's current link view:
	// sends vanish silently, no error surfaces — detectable only by a
	// progress watchdog, so scheduling one puts the sender under the
	// session supervisor.
	WedgeSender ActionKind = "wedge_sender"

	// CrashNode crashes the entire relay node Action.Node: every session,
	// receiver and per-hop dedup window it hosts is torn down at
	// once, not just one link. Mesh scenarios only.
	CrashNode ActionKind = "crash_node"
	// RestartNode rebuilds a previously crashed relay node.
	RestartNode ActionKind = "restart_node"
	// NodeBlackoutStart partitions every link adjacent to Action.Node —
	// the node is alive but unreachable.
	NodeBlackoutStart ActionKind = "node_blackout_start"
	// NodeBlackoutEnd lifts a node-level partition.
	NodeBlackoutEnd ActionKind = "node_blackout_end"
)

// Action is one scheduled fault, At after scenario start.
type Action struct {
	At   time.Duration `json:"at"`
	Kind ActionKind    `json:"kind"`
	Loss float64       `json:"loss,omitempty"` // for SetLoss
	// Node is the relay node a node-level action targets (CrashNode,
	// RestartNode, NodeBlackoutStart/End).
	Node int `json:"node,omitempty"`
	// Link narrows BlackoutStart/End and SetLoss to one link, 1-based: a
	// mesh's topology link, or a link scenario's direction (1 = TR,
	// 2 = RT); 0 acts on every one.
	Link int `json:"link,omitempty"`
}

// LinkSpec is the impairment profile of the scenario's link, applied
// symmetrically to both directions: the runtime's one link model, so a
// scenario's JSON configures a pipe and a fabric link alike.
type LinkSpec = netlink.LinkModel

// Scenario is one reproducible chaos schedule: a link profile plus a
// timeline of fault actions. Identical seeds yield identical scenarios.
type Scenario struct {
	Name     string        `json:"name"`
	Seed     int64         `json:"seed"`
	Duration time.Duration `json:"duration"`
	Link     LinkSpec      `json:"link"`
	Actions  []Action      `json:"actions"`
	// Mesh, when set, makes the scenario a multi-hop one: Run builds
	// this relay topology (every link with the Link profile above) and
	// the actions target whole nodes instead of stations.
	Mesh *MeshSpec `json:"mesh,omitempty"`
	// Adversary, when set, mounts an adaptive attacker-in-the-middle
	// between a link scenario's stations and its impaired link for the
	// whole run.
	Adversary *AdversarySpec `json:"adversary,omitempty"`
}

// Count returns how many scheduled actions have the given kind.
func (s Scenario) Count(k ActionKind) int {
	n := 0
	for _, a := range s.Actions {
		if a.Kind == k {
			n++
		}
	}
	return n
}

// JSON renders the scenario as indented JSON for logs and repro files.
func (s Scenario) JSON() string {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Sprintf("{%q:%q}", "error", err.Error())
	}
	return string(b)
}

// Supervised reports whether Run puts the scenario's sender under the
// session supervisor: a link scenario that schedules a WedgeSender, the
// one fault only the supervisor's watchdog heals.
func (s Scenario) Supervised() bool { return s.Mesh == nil && s.Count(WedgeSender) > 0 }

// ParseScenario decodes a scenario previously rendered with JSON and
// rejects one the timeline could not carry out as written.
func ParseScenario(data []byte) (Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(data, &s); err != nil {
		return Scenario{}, fmt.Errorf("chaos: parse scenario: %w", err)
	}
	sort.SliceStable(s.Actions, func(i, j int) bool { return s.Actions[i].At < s.Actions[j].At })
	if err := s.validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// GenConfig bounds the randomized scenario generator. Zero fields take
// the defaults noted on each.
type GenConfig struct {
	// Duration is the timeline length (default 1.5s).
	Duration time.Duration
	// CrashesPerSide schedules this many crashes for each station
	// (default 3).
	CrashesPerSide int
	// Blackouts is the number of full-partition windows (default 1), each
	// up to maxBlackout long.
	Blackouts int
	// LossRamps is how many times the i.i.d. loss is re-drawn (default 2);
	// the nominal link loss is always restored near the end.
	LossRamps int
	// MaxRampLoss caps ramped loss probabilities (default 0.5).
	MaxRampLoss float64
	// Wedges schedules this many WedgeSender actions (default 0). A
	// wedge makes the scenario supervised: only a watchdog-driven redial
	// recovers from one.
	Wedges int
}

func (c GenConfig) withDefaults() GenConfig {
	if c.Duration <= 0 {
		c.Duration = 1500 * time.Millisecond
	}
	if c.CrashesPerSide == 0 {
		c.CrashesPerSide = 3
	}
	if c.Blackouts == 0 {
		c.Blackouts = 1
	}
	if c.LossRamps == 0 {
		c.LossRamps = 2
	}
	if c.MaxRampLoss <= 0 {
		c.MaxRampLoss = 0.5
	}
	return c
}

// maxBlackout caps each blackout window both generators schedule.
const maxBlackout = 60 * time.Millisecond

// Generate draws a randomized scenario: a bursty, jittery link profile
// and a timeline of crashes, blackouts and loss ramps. The result is a
// pure function of seed and cfg — rerunning with the printed seed replays
// the exact schedule.
func Generate(seed int64, cfg GenConfig) Scenario {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	d := cfg.Duration

	sc := Scenario{
		Name:     fmt.Sprintf("random-%d", seed),
		Seed:     seed,
		Duration: d,
		Link: LinkSpec{
			Loss:        0.05 * rng.Float64(),
			DupProb:     0.1 * rng.Float64(),
			ReorderProb: 0.1 * rng.Float64(),
			Burst: &netlink.GilbertElliott{
				PGoodBad: 0.02 + 0.08*rng.Float64(),
				PBadGood: 0.2 + 0.3*rng.Float64(),
				LossGood: 0.05 * rng.Float64(),
				LossBad:  0.5 + 0.4*rng.Float64(),
			},
			Latency: 50*time.Microsecond + time.Duration(rng.Int63n(int64(200*time.Microsecond))),
			Jitter:  100*time.Microsecond + time.Duration(rng.Int63n(int64(400*time.Microsecond))),
		},
	}

	// Crashes land in the middle 80% of the timeline so traffic overlaps.
	inWindow := func() time.Duration {
		lo := d / 10
		return lo + time.Duration(rng.Int63n(int64(d-2*lo)))
	}
	for i := 0; i < cfg.CrashesPerSide; i++ {
		sc.Actions = append(sc.Actions,
			Action{At: inWindow(), Kind: CrashSender},
			Action{At: inWindow(), Kind: CrashReceiver})
	}

	// Blackouts get one non-overlapping slot each. (A negative count
	// skips them entirely — the mesh generator schedules its own.)
	if cfg.Blackouts > 0 {
		slot := d / time.Duration(cfg.Blackouts+1)
		for i := 0; i < cfg.Blackouts; i++ {
			start := slot*time.Duration(i) + slot/4 + time.Duration(rng.Int63n(int64(slot/4)))
			length := maxBlackout/4 + time.Duration(rng.Int63n(int64(3*maxBlackout/4)))
			sc.Actions = append(sc.Actions,
				Action{At: start, Kind: BlackoutStart},
				Action{At: start + length, Kind: BlackoutEnd})
		}
	}

	for i := 0; i < cfg.LossRamps; i++ {
		sc.Actions = append(sc.Actions,
			Action{At: inWindow(), Kind: SetLoss, Loss: cfg.MaxRampLoss * rng.Float64()})
	}
	// Wedges land in the middle half of the timeline: late enough to meet
	// live traffic, early enough that the watchdog can heal before drain.
	for i := 0; i < cfg.Wedges; i++ {
		at := d/4 + time.Duration(rng.Int63n(int64(d/2)))
		sc.Actions = append(sc.Actions, Action{At: at, Kind: WedgeSender})
	}
	// Restore the nominal loss so the tail of the run can always drain.
	sc.Actions = append(sc.Actions,
		Action{At: d * 95 / 100, Kind: SetLoss, Loss: sc.Link.Loss})

	sort.SliceStable(sc.Actions, func(i, j int) bool { return sc.Actions[i].At < sc.Actions[j].At })
	return sc
}

// The chaos.* metric names, declared constants per the metricname
// invariant: the conformance checks cross-check injected-vs-observed
// counts by exact name, so a typo'd literal would silently break them.
const (
	mChaosCrashTInjected    = "chaos.crash_t_injected"
	mChaosCrashRInjected    = "chaos.crash_r_injected"
	mChaosBlackoutsInjected = "chaos.blackouts_injected"
	mChaosLossRampsInjected = "chaos.loss_ramps_injected"
	mChaosWedgesInjected    = "chaos.wedges_injected"
	mChaosLossCurrent       = "chaos.loss_current"

	mChaosNodeCrashesInjected   = "chaos.node_crashes_injected"
	mChaosNodeRestartsInjected  = "chaos.node_restarts_injected"
	mChaosNodeBlackoutsInjected = "chaos.node_blackouts_injected"

	mChaosSends     = "chaos.sends"
	mChaosAbandoned = "chaos.abandoned"
	mChaosDelivered = "chaos.delivered"
)

// injected maps every action kind to the counter its injections bump;
// the ends of windows are not counted. Its keys are the kinds a scenario
// may schedule.
var injected = map[ActionKind]string{
	CrashSender:       mChaosCrashTInjected,
	CrashReceiver:     mChaosCrashRInjected,
	BlackoutStart:     mChaosBlackoutsInjected,
	BlackoutEnd:       "",
	SetLoss:           mChaosLossRampsInjected,
	WedgeSender:       mChaosWedgesInjected,
	CrashNode:         mChaosNodeCrashesInjected,
	RestartNode:       mChaosNodeRestartsInjected,
	NodeBlackoutStart: mChaosNodeBlackoutsInjected,
	NodeBlackoutEnd:   "",
}

// validate rejects what the timeline could not act on: an unknown kind,
// a Link or Node out of range, an action whose target the scenario's
// family lacks (stations belong to a link scenario, nodes to a mesh),
// a mesh with an adversary, and an adversary spec that does not build.
// Scenario files come from outside the program, so this runs on every
// parse and every Run, before any fault is counted as injected.
func (s Scenario) validate() error {
	if s.Mesh != nil && s.Adversary != nil {
		return fmt.Errorf("chaos: scenario %q mounts an adversary on a mesh; only a link scenario can", s.Name)
	}
	if s.Adversary != nil {
		if _, err := s.Adversary.Build(s.Seed); err != nil {
			return err
		}
	}
	links, nodes := 2, 0 // a link scenario's two directions, TR and RT
	if s.Mesh != nil {
		links, nodes = len(s.Mesh.Topology.Links), s.Mesh.Topology.Nodes
	}
	for i, a := range s.Actions {
		bad := ""
		if _, ok := injected[a.Kind]; !ok {
			bad = "unknown kind"
		} else if a.Link < 0 || a.Link > links {
			bad = fmt.Sprintf("link %d out of range [0, %d]", a.Link, links)
		}
		switch a.Kind {
		case CrashSender, CrashReceiver, WedgeSender:
			if s.Mesh != nil {
				bad = "a mesh scenario has no single station to act on"
			}
		case CrashNode, RestartNode, NodeBlackoutStart, NodeBlackoutEnd:
			if s.Mesh == nil {
				bad = "a link scenario has no relay nodes"
			} else if a.Node < 0 || a.Node >= nodes {
				bad = fmt.Sprintf("node %d out of range [0, %d)", a.Node, nodes)
			}
		}
		if bad != "" {
			return fmt.Errorf("chaos: scenario %q action %d (%q at %v): %s", s.Name, i, a.Kind, a.At, bad)
		}
	}
	return nil
}

// timeline executes the scenario's actions in At order on clk, counting
// each injection under reg's chaos.* names and handing it to apply. It
// returns when the last action has fired or ctx ends. The scenario must
// have passed validate.
func timeline(ctx context.Context, sc Scenario, clk clock.Clock, reg *metrics.Registry, apply func(Action)) error {
	reg.Gauge(mChaosLossCurrent).Set(sc.Link.Loss)
	actions := append([]Action(nil), sc.Actions...)
	sort.SliceStable(actions, func(i, j int) bool { return actions[i].At < actions[j].At })
	start := clk.Now()
	timer := clk.NewTimer(time.Hour)
	defer timer.Stop()
	for _, a := range actions {
		if !timer.Stop() {
			select {
			case <-timer.C():
			default:
			}
		}
		timer.Reset(start.Add(a.At).Sub(clk.Now()))
		select {
		case <-timer.C():
		case <-ctx.Done():
			return ctx.Err()
		}
		if name := injected[a.Kind]; name != "" {
			reg.Counter(name).Inc()
		}
		if a.Kind == SetLoss {
			reg.Gauge(mChaosLossCurrent).Set(a.Loss)
		}
		apply(a)
	}
	return nil
}
