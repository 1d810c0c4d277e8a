package adversary

// Adaptive strategies: adversaries that steer their attacks by what the
// oblivious model lets them observe — packet identifiers, packet lengths
// and timing (steps), never contents.
//
// Lengths leak the protocol's phase. A station's random string grows by
// size(t) bits at every extension, so a growth in the CTL packet length is
// the receiver crossing a challenge-extension boundary (bound(t) same-
// length mismatches accumulated), a growth in the DATA length is the
// transmitter extending its tag, and a *shrink* in either direction is a
// crash: the station restarted with a fresh level-1 string. The strategies
// below key their replays, bursts, crashes and blackouts to exactly these
// transitions — the strongest moves the Section 2.4 adversary has, and
// therefore what the safety theorems must (and do) absorb.
//
// None of these strategies satisfies Axiom 3 on its own; compose with Fair
// when liveness should still hold.

import (
	"math/rand"

	"ghm/internal/core"
	"ghm/internal/trace"
)

// AttackStats is implemented by strategies that account for their own
// attack volume: mounted counts attack actions emitted, suppressed counts
// attacks the strategy withheld to stay below its self-imposed pacing
// (e.g. riding under bound(t)).
type AttackStats interface {
	AttackStats() (mounted, suppressed int64)
}

// lenWatch tracks the packet-length sequence of one channel direction and
// classifies each observation as a growth, a shrink, or neither.
type lenWatch struct{ last int }

// observe returns +1 when the length grew, -1 when it shrank, 0 on the
// first observation or no change.
func (w *lenWatch) observe(length int) int {
	prev := w.last
	w.last = length
	switch {
	case prev == 0 || length == prev:
		return 0
	case length > prev:
		return 1
	default:
		return -1
	}
}

// ReplayUnderBound replays same-length history DATA packets (DirTR: they
// attack the receiver's challenge) while pacing itself to stay just under
// the victim's bound(t) error budget: the sharpest replay flood the
// oblivious model admits, because staying below bound(t) keeps the station
// from extending its string and so keeps the guessing odds at their
// current-level maximum. The level t is not observable directly; the
// strategy estimates it from length transitions on the opposite channel
// (each growth there is an extension, each shrink a restart) and resets
// its per-level spend accordingly.
type ReplayUnderBound struct {
	rng   *rand.Rand
	watch lenWatch
	bound func(int) int
	rate  int

	level   int
	used    int // replays spent against the current level's budget
	byLen   map[int][]int64
	lastLen int

	mounted, suppressed int64
}

// ReplayUnderBoundConfig parameterizes ReplayUnderBound. Zero fields take
// the documented defaults.
type ReplayUnderBoundConfig struct {
	// Bound is the victim's schedule the flood rides under (default the
	// paper's bound(t) = floor(2^t/4), core.DefaultBound).
	Bound func(t int) int
	// Rate caps replays per step (default 4).
	Rate int
}

// NewReplayUnderBound returns a ReplayUnderBound adversary driven by rng.
func NewReplayUnderBound(rng *rand.Rand, cfg ReplayUnderBoundConfig) *ReplayUnderBound {
	if cfg.Bound == nil {
		cfg.Bound = core.DefaultBound
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 4
	}
	return &ReplayUnderBound{
		rng:   rng,
		bound: cfg.Bound,
		rate:  cfg.Rate,
		level: 1,
		byLen: make(map[int][]int64),
	}
}

// OnNewPacket implements Adversary.
func (a *ReplayUnderBound) OnNewPacket(dir trace.Dir, id int64, length int) {
	if dir == trace.DirTR {
		a.byLen[length] = append(a.byLen[length], id)
		a.lastLen = length
		return
	}
	switch a.watch.observe(length) {
	case 1: // extension boundary crossed: the victim levelled up
		a.level++
		a.used = 0
	case -1: // fresh short string: the victim crashed back to level 1
		a.level = 1
		a.used = 0
	}
}

// Next implements Adversary.
func (a *ReplayUnderBound) Next(step int) []Action {
	ids := a.byLen[a.lastLen]
	if len(ids) == 0 {
		return nil
	}
	// Ride under the budget: bound(level) same-length mismatches trigger
	// the extension, so spend at most bound(level)-1 per level.
	budget := a.bound(a.level) - 1
	if budget < 0 {
		budget = 0
	}
	n := a.rate
	if room := budget - a.used; n > room {
		a.suppressed += int64(n - room)
		n = room
	}
	if n <= 0 {
		return nil
	}
	out := make([]Action, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Action{Kind: ActDeliver, Dir: trace.DirTR, ID: ids[a.rng.Intn(len(ids))]})
	}
	a.used += n
	a.mounted += int64(n)
	return out
}

// AttackStats implements the AttackStats interface.
func (a *ReplayUnderBound) AttackStats() (mounted, suppressed int64) {
	return a.mounted, a.suppressed
}

// ExtensionBurst fires targeted duplication bursts timed at challenge-
// extension boundaries: when the watched channel's packet length grows
// (the victim just extended — the moment its counters reset and its
// freshly lengthened string has seen the fewest guesses), the strategy
// re-delivers the most recently observed DATA packets (DirTR) for a
// configured number of steps.
type ExtensionBurst struct {
	rng    *rand.Rand
	watch  lenWatch
	rate   int
	steps  int
	keep   int
	recent []int64

	burstLeft int

	mounted, suppressed int64
}

// ExtensionBurstConfig parameterizes ExtensionBurst. Zero fields take the
// documented defaults.
type ExtensionBurstConfig struct {
	// Rate caps duplicate deliveries per burst step (default 8).
	Rate int
	// Steps is the burst duration after each detected boundary (default 4).
	Steps int
	// Keep bounds the ring of recent packets drawn from (default 32).
	Keep int
}

// NewExtensionBurst returns an ExtensionBurst adversary driven by rng.
func NewExtensionBurst(rng *rand.Rand, cfg ExtensionBurstConfig) *ExtensionBurst {
	if cfg.Rate <= 0 {
		cfg.Rate = 8
	}
	if cfg.Steps <= 0 {
		cfg.Steps = 4
	}
	if cfg.Keep <= 0 {
		cfg.Keep = 32
	}
	return &ExtensionBurst{rng: rng, rate: cfg.Rate, steps: cfg.Steps, keep: cfg.Keep}
}

// OnNewPacket implements Adversary.
func (a *ExtensionBurst) OnNewPacket(dir trace.Dir, id int64, length int) {
	if dir == trace.DirTR {
		a.recent = append(a.recent, id)
		if len(a.recent) > a.keep {
			a.recent = a.recent[len(a.recent)-a.keep:]
		}
		return
	}
	if a.watch.observe(length) == 1 {
		a.burstLeft = a.steps
	}
}

// Next implements Adversary.
func (a *ExtensionBurst) Next(step int) []Action {
	if len(a.recent) == 0 {
		return nil
	}
	if a.burstLeft <= 0 {
		a.suppressed += int64(a.rate) // holding fire between boundaries
		return nil
	}
	a.burstLeft--
	out := make([]Action, 0, a.rate)
	for i := 0; i < a.rate; i++ {
		out = append(out, Action{Kind: ActDeliver, Dir: trace.DirTR, ID: a.recent[a.rng.Intn(len(a.recent))]})
	}
	a.mounted += int64(len(out))
	return out
}

// AttackStats implements the AttackStats interface.
func (a *ExtensionBurst) AttackStats() (mounted, suppressed int64) {
	return a.mounted, a.suppressed
}

// CrashTimer keys crashes and blackouts to observed length transitions:
// a growth on the watched channel means the station behind it just
// invested in an extension (crashing its peer now maximizes wasted work
// and leaves the longest history of stale packets facing a fresh
// challenge), and a shrink means a station just restarted (a blackout now
// stretches its recovery). This is the adaptive counterpart of CrashLoop's
// blind periodic schedule.
type CrashTimer struct {
	watch    lenWatch
	dir      trace.Dir
	onGrow   bool
	onShrink bool
	crashT   bool
	crashR   bool
	blackout int
	cooldown int
	max      int

	pending  []Action
	lastFire int
	fired    int

	mounted int64
}

// CrashTimerConfig parameterizes CrashTimer. Zero values take the
// documented defaults.
type CrashTimerConfig struct {
	// Watch is the channel whose length transitions trigger the timer
	// (default DirTR: DATA growth marks transmitter tag extensions).
	Watch trace.Dir
	// OnGrow and OnShrink select the triggering transitions; with neither
	// set, OnGrow is assumed.
	OnGrow, OnShrink bool
	// CrashT and CrashR select the injected crashes; with neither set and
	// Blackout zero, CrashR is assumed (the crash that re-arms replays).
	CrashT, CrashR bool
	// Blackout, when positive, additionally injects an ActBlackout of this
	// many steps at each trigger.
	Blackout int
	// Cooldown is the minimum number of steps between firings (default 64).
	Cooldown int
	// Max bounds total firings (default 16; the model's crashes are rare
	// relative to packet events).
	Max int
}

// NewCrashTimer returns a CrashTimer adversary.
func NewCrashTimer(cfg CrashTimerConfig) *CrashTimer {
	if cfg.Watch == 0 {
		cfg.Watch = trace.DirTR
	}
	if !cfg.OnGrow && !cfg.OnShrink {
		cfg.OnGrow = true
	}
	if !cfg.CrashT && !cfg.CrashR && cfg.Blackout <= 0 {
		cfg.CrashR = true
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 64
	}
	if cfg.Max <= 0 {
		cfg.Max = 16
	}
	return &CrashTimer{
		dir:      cfg.Watch,
		onGrow:   cfg.OnGrow,
		onShrink: cfg.OnShrink,
		crashT:   cfg.CrashT,
		crashR:   cfg.CrashR,
		blackout: cfg.Blackout,
		cooldown: cfg.Cooldown,
		max:      cfg.Max,
		lastFire: -1 << 30,
	}
}

// OnNewPacket implements Adversary.
func (a *CrashTimer) OnNewPacket(dir trace.Dir, id int64, length int) {
	if dir != a.dir {
		return
	}
	tr := a.watch.observe(length)
	if (tr == 1 && a.onGrow) || (tr == -1 && a.onShrink) {
		a.arm()
	}
}

// arm queues the configured actions for the next step, subject to the
// cooldown and the total cap.
func (a *CrashTimer) arm() {
	if a.fired >= a.max || len(a.pending) > 0 {
		return
	}
	if a.crashT {
		a.pending = append(a.pending, Action{Kind: ActCrashT})
	}
	if a.crashR {
		a.pending = append(a.pending, Action{Kind: ActCrashR})
	}
	if a.blackout > 0 {
		a.pending = append(a.pending, Action{Kind: ActBlackout, Dur: a.blackout})
	}
}

// Next implements Adversary.
func (a *CrashTimer) Next(step int) []Action {
	if len(a.pending) == 0 || step-a.lastFire < a.cooldown {
		return nil
	}
	out := a.pending
	a.pending = nil
	a.lastFire = step
	a.fired++
	a.mounted += int64(len(out))
	return out
}

// AttackStats implements the AttackStats interface.
func (a *CrashTimer) AttackStats() (mounted, suppressed int64) {
	return a.mounted, 0
}

var (
	_ Adversary   = (*ReplayUnderBound)(nil)
	_ Adversary   = (*ExtensionBurst)(nil)
	_ Adversary   = (*CrashTimer)(nil)
	_ AttackStats = (*ReplayUnderBound)(nil)
	_ AttackStats = (*ExtensionBurst)(nil)
	_ AttackStats = (*CrashTimer)(nil)
)
