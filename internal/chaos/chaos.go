// Package chaos drives scripted and randomized fault scenarios against
// the live runtime stations of ghm/internal/netlink: scheduled station
// crashes (via the stations' Crash hooks), link blackouts and loss ramps
// (via netlink.ImpairedConn's runtime controls), all layered over a
// seeded impaired link with Gilbert–Elliott burst loss, latency and
// jitter.
//
// A Scenario is a deterministic function of its seed, serializes to JSON
// for reproduction, and can be executed both from tests and from the
// cmd/ghmsoak chaos mode. Soak additionally wires the stations' event
// taps into a verify.Live checker, so every chaos run doubles as a
// mechanical check of the paper's Section 2.6 correctness conditions
// against a real execution.
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
	// progress watchdog. Requires a Targets.Shared; no-op otherwise.
	WedgeSender ActionKind = "wedge_sender"

	// CrashNode crashes the entire relay node Action.Node: every session,
	// receiver and per-hop dedup window it hosts is torn down at
	// once, not just one link. Requires Targets.Nodes; no-op otherwise.
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
	// Link narrows BlackoutStart/End and SetLoss to one link of
	// Targets.Links, 1-based; 0 keeps the legacy every-link behavior.
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
	// Mesh, when set, makes the scenario a multi-hop one: MeshSoak builds
	// this relay topology (every link with the Link profile above) and
	// the actions may target whole nodes. Single-hop runners ignore it.
	Mesh *MeshSpec `json:"mesh,omitempty"`
	// Adversary, when set, mounts an adaptive attacker-in-the-middle on
	// the link for the scenario's whole run (see AdversarySoak). Runners
	// without attacker support ignore it.
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

// ParseScenario decodes a scenario previously rendered with JSON.
func ParseScenario(data []byte) (Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(data, &s); err != nil {
		return Scenario{}, fmt.Errorf("chaos: parse scenario: %w", err)
	}
	sort.SliceStable(s.Actions, func(i, j int) bool { return s.Actions[i].At < s.Actions[j].At })
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
	// Blackouts is the number of full-partition windows (default 1).
	Blackouts int
	// MaxBlackout caps each blackout window (default 60ms).
	MaxBlackout time.Duration
	// LossRamps is how many times the i.i.d. loss is re-drawn (default 2);
	// the nominal link loss is always restored near the end.
	LossRamps int
	// MaxRampLoss caps ramped loss probabilities (default 0.5).
	MaxRampLoss float64
	// Wedges schedules this many WedgeSender actions (default 0 — only
	// supervised scenarios can survive one, since recovery requires a
	// watchdog-driven redial).
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
	if c.MaxBlackout <= 0 {
		c.MaxBlackout = 60 * time.Millisecond
	}
	if c.LossRamps == 0 {
		c.LossRamps = 2
	}
	if c.MaxRampLoss <= 0 {
		c.MaxRampLoss = 0.5
	}
	return c
}

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
			length := cfg.MaxBlackout/4 + time.Duration(rng.Int63n(int64(3*cfg.MaxBlackout/4)))
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

// Crasher is a station that can have its memory erased; both
// netlink.Sender and netlink.Receiver satisfy it.
type Crasher interface{ Crash() }

// Controllable is a link with runtime impairment controls;
// netlink.ImpairedConn satisfies it.
type Controllable interface {
	SetBlackout(bool)
	SetLoss(float64)
}

// Wedger can half-kill the live view of a shared link;
// netlink.SharedConn satisfies it.
type Wedger interface{ WedgeCurrent() }

// NodeTarget is one relay node a scenario can act on as a whole: crash
// it, rebuild it, or partition every link it touches. The mesh soak
// adapts relay nodes (plus their adjacent impaired links) into this.
type NodeTarget interface {
	CrashNode()
	RestartNode()
	// SetNodeBlackout partitions (or restores) every adjacent link.
	SetNodeBlackout(on bool)
}

// Targets are the live objects a scenario acts on. Nil stations and empty
// link lists are allowed; the matching actions become no-ops.
type Targets struct {
	Sender   Crasher
	Receiver Crasher
	Links    []Controllable
	// Nodes are the relay nodes node-level actions index by Action.Node;
	// nil or out-of-range makes those actions no-ops.
	Nodes []NodeTarget
	// Shared is the sending side's shared link, target of WedgeSender
	// actions (supervised scenarios only).
	Shared Wedger
	// Clock paces the fault timeline (nil = wall clock). Under a virtual
	// clock the scheduled At offsets fire in virtual time, aligned with
	// the components under attack.
	Clock clock.Clock
	// Metrics counts the injected faults (the chaos.*_injected family),
	// so a run's reported numbers can be cross-checked against what the
	// instrumented links and stations observed. Nil uses metrics.Default().
	Metrics *metrics.Registry
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

// Run executes the scenario's timeline in real time against t, returning
// when the timeline completes or ctx ends. Actions fire in At order from
// the moment Run is called.
func Run(ctx context.Context, sc Scenario, t Targets) error {
	reg := t.Metrics
	if reg == nil {
		reg = metrics.Default()
	}
	var (
		crashTInjected       = reg.Counter(mChaosCrashTInjected)
		crashRInjected       = reg.Counter(mChaosCrashRInjected)
		blackoutInjected     = reg.Counter(mChaosBlackoutsInjected)
		rampInjected         = reg.Counter(mChaosLossRampsInjected)
		wedgeInjected        = reg.Counter(mChaosWedgesInjected)
		nodeCrashInjected    = reg.Counter(mChaosNodeCrashesInjected)
		nodeRestartInjected  = reg.Counter(mChaosNodeRestartsInjected)
		nodeBlackoutInjected = reg.Counter(mChaosNodeBlackoutsInjected)
		lossCurrent          = reg.Gauge(mChaosLossCurrent)
	)
	lossCurrent.Set(sc.Link.Loss)

	// linksFor resolves an action's link selector: one specific link
	// (1-based) or, at zero, every link — the legacy behavior.
	linksFor := func(a Action) []Controllable {
		if a.Link > 0 {
			if a.Link > len(t.Links) {
				return nil
			}
			return t.Links[a.Link-1 : a.Link]
		}
		return t.Links
	}
	nodeFor := func(a Action) NodeTarget {
		if a.Node < 0 || a.Node >= len(t.Nodes) {
			return nil
		}
		return t.Nodes[a.Node]
	}

	clk := t.Clock
	if clk == nil {
		clk = clock.System()
	}
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
		switch a.Kind {
		case CrashSender:
			crashTInjected.Inc()
			if t.Sender != nil {
				t.Sender.Crash()
			}
		case CrashReceiver:
			crashRInjected.Inc()
			if t.Receiver != nil {
				t.Receiver.Crash()
			}
		case BlackoutStart:
			blackoutInjected.Inc()
			for _, l := range linksFor(a) {
				l.SetBlackout(true)
			}
		case BlackoutEnd:
			for _, l := range linksFor(a) {
				l.SetBlackout(false)
			}
		case SetLoss:
			rampInjected.Inc()
			lossCurrent.Set(a.Loss)
			for _, l := range linksFor(a) {
				l.SetLoss(a.Loss)
			}
		case WedgeSender:
			wedgeInjected.Inc()
			if t.Shared != nil {
				t.Shared.WedgeCurrent()
			}
		case CrashNode:
			nodeCrashInjected.Inc()
			if n := nodeFor(a); n != nil {
				n.CrashNode()
			}
		case RestartNode:
			nodeRestartInjected.Inc()
			if n := nodeFor(a); n != nil {
				n.RestartNode()
			}
		case NodeBlackoutStart:
			nodeBlackoutInjected.Inc()
			if n := nodeFor(a); n != nil {
				n.SetNodeBlackout(true)
			}
		case NodeBlackoutEnd:
			if n := nodeFor(a); n != nil {
				n.SetNodeBlackout(false)
			}
		default:
			return fmt.Errorf("chaos: unknown action kind %q", a.Kind)
		}
	}
	return nil
}
