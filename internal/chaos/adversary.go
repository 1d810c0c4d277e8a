package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"ghm/internal/adversary"
	"ghm/internal/core"
	"ghm/internal/metrics"
	"ghm/internal/netlink"
	"ghm/internal/trace"
	"ghm/internal/verify"
)

// The adaptive strategy kinds an AdversarySpec can mount. Each names one
// of the adaptive adversaries in ghm/internal/adversary; the spec carries
// only their tuning knobs, so a scenario JSON stays a complete, seeded
// reproduction recipe.
const (
	// StrategyReplayUnderBound replays same-length history packets while
	// pacing itself just under the victim's bound(t) error budget.
	StrategyReplayUnderBound = "replay_under_bound"
	// StrategyExtensionBurst fires duplication bursts timed at observed
	// challenge-extension boundaries (packet-length growth).
	StrategyExtensionBurst = "extension_burst"
	// StrategyCrashTimer keys station crashes and link blackouts to
	// observed length transitions.
	StrategyCrashTimer = "crash_timer"
)

// StrategySpec is the JSON form of one adaptive strategy. Zero fields
// take the strategy's documented defaults, so {"kind":"extension_burst"}
// is a complete spec.
type StrategySpec struct {
	Kind string `json:"kind"`
	// Rate caps attack actions per adversary step (replay flood and
	// burst strategies).
	Rate int `json:"rate,omitempty"`
	// Steps is the burst duration after each detected boundary
	// (extension_burst only).
	Steps int `json:"steps,omitempty"`
	// Keep bounds the recent-packet ring (extension_burst only).
	Keep int `json:"keep,omitempty"`
	// CrashT / CrashR select the injected crashes (crash_timer only).
	CrashT bool `json:"crashT,omitempty"`
	CrashR bool `json:"crashR,omitempty"`
	// OnShrink triggers on length shrinks (restarts) instead of growths
	// (crash_timer only).
	OnShrink bool `json:"onShrink,omitempty"`
	// Blackout injects a blackout of this many steps at each trigger
	// (crash_timer only).
	Blackout int `json:"blackout,omitempty"`
	// Cooldown is the minimum number of steps between crash-timer
	// firings.
	Cooldown int `json:"cooldown,omitempty"`
	// Max bounds total crash-timer firings.
	Max int `json:"max,omitempty"`
}

// AdversarySpec is the JSON form of a runtime attacker-in-the-middle: a
// set of adaptive strategies plus the attacker's clock and capture
// bounds. Attached to a Scenario it makes the adversary part of the
// seeded repro artifact — same scenario file, same attack.
type AdversarySpec struct {
	// Tick is the wall-clock duration of one adversary step (default
	// 500µs).
	Tick time.Duration `json:"tick,omitempty"`
	// Capture bounds the attacker's per-direction replay ring (default
	// netlink.DefaultAttackerCapture).
	Capture int `json:"capture,omitempty"`
	// Strategies are composed into one adversary; all observe every
	// packet crossing the link.
	Strategies []StrategySpec `json:"strategies"`
}

// Build constructs the composed adaptive adversary the spec describes.
// The result is a pure function of the spec and the seed: replaying a
// scenario file rebuilds the identical attack schedule.
func (sp AdversarySpec) Build(seed int64) (adversary.Adversary, error) {
	if len(sp.Strategies) == 0 {
		return nil, errors.New("chaos: adversary spec has no strategies")
	}
	parts := make([]adversary.Adversary, 0, len(sp.Strategies))
	for i, st := range sp.Strategies {
		rng := rand.New(rand.NewSource(seed + int64(i)*7919))
		switch st.Kind {
		case StrategyReplayUnderBound:
			parts = append(parts, adversary.NewReplayUnderBound(rng, adversary.ReplayUnderBoundConfig{
				Rate: st.Rate,
			}))
		case StrategyExtensionBurst:
			parts = append(parts, adversary.NewExtensionBurst(rng, adversary.ExtensionBurstConfig{
				Rate:  st.Rate,
				Steps: st.Steps,
				Keep:  st.Keep,
			}))
		case StrategyCrashTimer:
			parts = append(parts, adversary.NewCrashTimer(adversary.CrashTimerConfig{
				OnGrow:   !st.OnShrink,
				OnShrink: st.OnShrink,
				CrashT:   st.CrashT,
				CrashR:   st.CrashR,
				Blackout: st.Blackout,
				Cooldown: st.Cooldown,
				Max:      st.Max,
			}))
		default:
			return nil, fmt.Errorf("chaos: unknown adversary strategy %q", st.Kind)
		}
	}
	return adversary.Compose(parts...), nil
}

// GenerateAdversary draws a randomized adversary scenario: the usual
// chaos link profile and fault timeline of Generate, plus an adaptive
// attacker-in-the-middle mounting every adaptive strategy with seeded
// parameters. Like Generate, the result is a pure function of seed and
// cfg.
func GenerateAdversary(seed int64, cfg GenConfig) Scenario {
	sc := Generate(seed, cfg)
	sc.Name = fmt.Sprintf("adversary-%d", seed)
	rng := rand.New(rand.NewSource(seed + 0x9E37))
	sc.Adversary = &AdversarySpec{
		Strategies: []StrategySpec{
			{Kind: StrategyReplayUnderBound, Rate: 2 + rng.Intn(4)},
			{Kind: StrategyExtensionBurst, Rate: 4 + rng.Intn(6), Steps: 2 + rng.Intn(4)},
			{
				Kind:     StrategyCrashTimer,
				CrashT:   rng.Intn(2) == 0,
				CrashR:   true,
				Blackout: 2 + rng.Intn(5),
				Cooldown: 200 + rng.Intn(200),
				Max:      3 + rng.Intn(4),
			},
		},
	}
	return sc
}

// AdversarySoakResult extends SoakResult with the attacker's view of the
// run.
type AdversarySoakResult struct {
	SoakResult
	// Attacker counts what the attacker-in-the-middle observed, captured,
	// mounted and landed.
	Attacker netlink.AttackerStats
}

// AdversarySoak runs a live Sender/Receiver pair with the scenario's
// adaptive attacker-in-the-middle mounted between the stations and the
// impaired link, while the scenario's fault timeline also executes. Both
// stations' event taps feed a verify.Live checker: the adversary may
// stall progress (its blackouts and crash timing are not bound by Axiom
// 3) but a Section 2.6 violation is always a failure.
//
// The scenario must carry an AdversarySpec (see GenerateAdversary); the
// whole attack — strategies, pacing, crash timing — replays from the
// scenario JSON alone.
func AdversarySoak(ctx context.Context, cfg SoakConfig) (AdversarySoakResult, error) {
	var res AdversarySoakResult
	sc := cfg.Scenario
	if sc.Adversary == nil {
		return res, errors.New("chaos: scenario has no adversary spec")
	}
	strategy, err := sc.Adversary.Build(sc.Seed)
	if err != nil {
		return res, err
	}
	if cfg.Messages <= 0 {
		cfg.Messages = 500
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 300 * time.Microsecond
	}
	if cfg.RetryBackoffMax <= 0 {
		cfg.RetryBackoffMax = 32 * time.Millisecond
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.Default()
	}
	tick := sc.Adversary.Tick
	if tick <= 0 {
		tick = 500 * time.Microsecond
	}
	start := time.Now()

	la, lb := impairedPipe(sc.Link, sc.Seed+1, reg, nil)

	// The attacker sits between the stations and the impaired link, so
	// its replays traverse (and are re-impaired by) the same faulty link
	// as the originals.
	att := netlink.NewAttacker(netlink.AttackerConfig{
		Strategy: strategy,
		Tick:     tick,
		Capture:  sc.Adversary.Capture,
		Metrics:  reg,
	})
	defer att.Close()
	ca := att.Wrap(la, trace.DirTR)
	cb := att.Wrap(lb, trace.DirRT)

	live := &verify.Live{}
	s, err := netlink.NewSender(ca, netlink.SenderConfig{
		Params:  core.Params{Epsilon: cfg.Epsilon},
		Tap:     live.Observe,
		Metrics: reg,
	})
	if err != nil {
		la.Close()
		return res, fmt.Errorf("chaos: %w", err)
	}
	r, err := netlink.NewReceiver(cb, netlink.ReceiverConfig{
		Params:          core.Params{Epsilon: cfg.Epsilon},
		RetryInterval:   cfg.RetryInterval,
		RetryBackoffMax: cfg.RetryBackoffMax,
		Tap:             live.Observe,
		Metrics:         reg,
	})
	if err != nil {
		s.Close()
		return res, fmt.Errorf("chaos: %w", err)
	}
	defer func() {
		s.Close()
		r.Close()
	}()
	// Wire the strategy's length-keyed crash timing to the real stations.
	att.SetCrashHooks(s.Crash, r.Crash)

	drainCtx, stopDrain := context.WithCancel(context.Background())
	defer stopDrain()
	drained := make(chan int, 1)
	go func() {
		n := 0
		for {
			if _, err := r.Recv(drainCtx); err != nil {
				drained <- n
				return
			}
			n++
		}
	}()

	timeline := make(chan error, 1)
	go func() {
		timeline <- Run(ctx, sc, Targets{
			Sender:   s,
			Receiver: r,
			Links:    []Controllable{la, lb},
			Metrics:  reg,
		})
	}()

	var (
		sendsCtr     = reg.Counter(mChaosSends)
		abandonedCtr = reg.Counter(mChaosAbandoned)
		deliveredCtr = reg.Counter(mChaosDelivered)
	)
	timelineDone := false
	for i := 0; i < cfg.Messages || !timelineDone; i++ {
		msg := fmt.Sprintf("m-%08d", i)
		for attempt := 0; ; attempt++ {
			sendsCtr.Inc()
			err := s.Send(ctx, []byte(msg))
			if err == nil {
				break
			}
			if errors.Is(err, netlink.ErrCrashed) {
				// Wiped mid-flight — by the timeline or by the adaptive
				// crash timer; either way the original joins M_alpha and
				// is reissued under a fresh id.
				res.Abandoned++
				abandonedCtr.Inc()
				msg = fmt.Sprintf("m-%08d.r%d", i, attempt+1)
				continue
			}
			return res, fmt.Errorf("chaos: adversary soak send %d: %w", i, err)
		}
		if !timelineDone {
			select {
			case err := <-timeline:
				if err != nil {
					return res, fmt.Errorf("chaos: timeline: %w", err)
				}
				timelineDone = true
			default:
			}
		}
	}
	if !timelineDone {
		if err := <-timeline; err != nil {
			return res, fmt.Errorf("chaos: timeline: %w", err)
		}
	}

	// Stop the attack clock before tearing the stations down, then let
	// the last deliveries drain and collect the verdict.
	att.Close()
	s.Close()
	r.Close()
	stopDrain()
	res.Delivered = <-drained
	deliveredCtr.Add(int64(res.Delivered))
	res.LinkTR = la.Stats()
	res.LinkRT = lb.Stats()
	res.Attacker = att.Stats()
	res.Report = live.Report()
	res.Elapsed = time.Since(start)
	return res, nil
}
