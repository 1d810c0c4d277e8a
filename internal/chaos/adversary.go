package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"ghm/internal/adversary"
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
	// Tick is the duration of one adversary step on the run's clock
	// (default 500µs).
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
