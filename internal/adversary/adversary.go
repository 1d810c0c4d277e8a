// Package adversary implements the adversary of the paper's Section 2.4:
// the component that schedules packet deliveries, packet losses,
// duplications, reorderings and processor crashes.
//
// The adversary is oblivious: it learns only the identifier and length of
// each packet (the new_pkt action) and never the contents. The interface
// enforces this — implementations simply have nothing else to look at.
//
// An adversary satisfying Axiom 3 (starting at any time, if infinitely
// many packets are sent then eventually one of them is delivered) is
// "fair"; the protocol's liveness is guaranteed only under fair
// adversaries, while its safety holds under all of them. Fair is fair
// almost surely; Replay, GuessFlood and Silence are not, and are used to
// stress safety.
package adversary

import (
	"math/rand"

	"ghm/internal/trace"
)

// ActionKind enumerates adversary output actions.
type ActionKind int

const (
	// ActDeliver releases packet ID on channel Dir to its destination.
	ActDeliver ActionKind = iota + 1
	// ActCrashT erases the transmitting station's memory.
	ActCrashT
	// ActCrashR erases the receiving station's memory.
	ActCrashR
	// ActBlackout suppresses all deliveries for the next Dur steps: the
	// link goes dark and everything released during the window is lost.
	// Dropping packets is always within the adversary's power (Section
	// 2.4 only obliges it to Axiom 3 fairness), so a blackout can stall
	// liveness but never threatens safety.
	ActBlackout
)

// Action is one adversary decision.
type Action struct {
	Kind ActionKind
	Dir  trace.Dir // for ActDeliver
	ID   int64     // for ActDeliver
	Dur  int       // for ActBlackout: steps the link stays dark
}

// Adversary observes new packets and decides deliveries and crashes. The
// simulator calls OnNewPacket for every send_pkt and Next once per step.
type Adversary interface {
	// OnNewPacket is the new_pkt(id, length) notification.
	OnNewPacket(dir trace.Dir, id int64, length int)
	// Next returns the actions to apply at the given step.
	Next(step int) []Action
}

// Fair delivers pending packets randomly: each pending packet is released
// with probability DeliverProb per step, dropped forever with probability
// Loss on arrival, and redelivered later (duplicated) with probability
// DupProb after each release. Reordering emerges because packets release
// independently. With Loss < 1 and DeliverProb > 0 it satisfies Axiom 3
// almost surely.
type Fair struct {
	rng         *rand.Rand
	loss        float64
	dupProb     float64
	deliverProb float64
	pending     map[trace.Dir][]int64
}

// FairConfig parameterizes Fair. Zero fields take the documented defaults.
type FairConfig struct {
	Loss        float64 // probability a packet is never delivered (default 0)
	DupProb     float64 // probability a delivered packet stays queued (default 0)
	DeliverProb float64 // per-step release probability (default 0.5)
}

// NewFair returns a Fair adversary driven by rng.
func NewFair(rng *rand.Rand, cfg FairConfig) *Fair {
	if cfg.DeliverProb == 0 {
		cfg.DeliverProb = 0.5
	}
	return &Fair{
		rng:         rng,
		loss:        cfg.Loss,
		dupProb:     cfg.DupProb,
		deliverProb: cfg.DeliverProb,
		pending:     make(map[trace.Dir][]int64),
	}
}

// OnNewPacket implements Adversary.
func (f *Fair) OnNewPacket(dir trace.Dir, id int64, length int) {
	if f.rng.Float64() < f.loss {
		return // lost: never delivered
	}
	f.pending[dir] = append(f.pending[dir], id)
}

// Next implements Adversary.
func (f *Fair) Next(step int) []Action {
	var out []Action
	for _, dir := range []trace.Dir{trace.DirTR, trace.DirRT} {
		q := f.pending[dir]
		kept := q[:0]
		for _, id := range q {
			if f.rng.Float64() >= f.deliverProb {
				kept = append(kept, id)
				continue
			}
			out = append(out, Action{Kind: ActDeliver, Dir: dir, ID: id})
			if f.rng.Float64() < f.dupProb {
				kept = append(kept, id) // duplicate: deliver again later
			}
		}
		f.pending[dir] = kept
	}
	return out
}

// Replay re-delivers packets from the entire history of a channel: the
// attack of Section 3. Each step it picks Rate random identifiers ever
// seen on Dir and releases them again. It is not fair on its own; compose
// it with Fair when liveness should still hold.
type Replay struct {
	rng  *rand.Rand
	dir  trace.Dir
	rate int
	seen []int64
}

// NewReplay returns a Replay adversary flooding dir with rate replays per
// step.
func NewReplay(rng *rand.Rand, dir trace.Dir, rate int) *Replay {
	if rate <= 0 {
		rate = 1
	}
	return &Replay{rng: rng, dir: dir, rate: rate}
}

// OnNewPacket implements Adversary.
func (r *Replay) OnNewPacket(dir trace.Dir, id int64, length int) {
	if dir == r.dir {
		r.seen = append(r.seen, id)
	}
}

// Next implements Adversary.
func (r *Replay) Next(step int) []Action {
	if len(r.seen) == 0 {
		return nil
	}
	out := make([]Action, 0, r.rate)
	for i := 0; i < r.rate; i++ {
		id := r.seen[r.rng.Intn(len(r.seen))]
		out = append(out, Action{Kind: ActDeliver, Dir: r.dir, ID: id})
	}
	return out
}

// GuessFlood replays only history packets whose length matches the most
// recently observed packet length on the channel — the strongest oblivious
// strategy against the same-length error counters, since only same-length
// strings can match a station's current random string.
type GuessFlood struct {
	rng     *rand.Rand
	dir     trace.Dir
	rate    int
	byLen   map[int][]int64
	lastLen int
}

// NewGuessFlood returns a GuessFlood adversary on dir issuing rate replays
// per step.
func NewGuessFlood(rng *rand.Rand, dir trace.Dir, rate int) *GuessFlood {
	if rate <= 0 {
		rate = 1
	}
	return &GuessFlood{rng: rng, dir: dir, rate: rate, byLen: make(map[int][]int64)}
}

// OnNewPacket implements Adversary.
func (g *GuessFlood) OnNewPacket(dir trace.Dir, id int64, length int) {
	if dir != g.dir {
		return
	}
	g.byLen[length] = append(g.byLen[length], id)
	g.lastLen = length
}

// Next implements Adversary.
func (g *GuessFlood) Next(step int) []Action {
	ids := g.byLen[g.lastLen]
	if len(ids) == 0 {
		return nil
	}
	out := make([]Action, 0, g.rate)
	for i := 0; i < g.rate; i++ {
		out = append(out, Action{Kind: ActDeliver, Dir: g.dir, ID: ids[g.rng.Intn(len(ids))]})
	}
	return out
}

// CrashLoop injects periodic crashes and delivers nothing. EveryT and
// EveryR give the crash periods in steps (0 disables); Offset staggers the
// first crash.
type CrashLoop struct {
	EveryT, EveryR int
	Offset         int
}

// OnNewPacket implements Adversary.
func (c *CrashLoop) OnNewPacket(trace.Dir, int64, int) {}

// Next implements Adversary.
func (c *CrashLoop) Next(step int) []Action {
	var out []Action
	s := step + c.Offset
	if c.EveryT > 0 && s > 0 && s%c.EveryT == 0 {
		out = append(out, Action{Kind: ActCrashT})
	}
	if c.EveryR > 0 && s > 0 && s%c.EveryR == 0 {
		out = append(out, Action{Kind: ActCrashR})
	}
	return out
}

// Silence delivers nothing and crashes nothing: the disconnected channel.
// Useful for liveness tests (nothing should be delivered, and nothing
// should deadlock the stations).
type Silence struct{}

// OnNewPacket implements Adversary.
func (Silence) OnNewPacket(trace.Dir, int64, int) {}

// Next implements Adversary.
func (Silence) Next(int) []Action { return nil }

// Scripted replays a fixed schedule of actions, for deterministic unit
// tests.
type Scripted struct {
	Schedule map[int][]Action
}

// OnNewPacket implements Adversary.
func (s *Scripted) OnNewPacket(trace.Dir, int64, int) {}

// Next implements Adversary.
func (s *Scripted) Next(step int) []Action { return s.Schedule[step] }

// Compose merges several adversaries: all see every new packet, and each
// step applies the concatenation of their actions in order.
func Compose(advs ...Adversary) Adversary { return composite(advs) }

type composite []Adversary

// OnNewPacket implements Adversary.
func (c composite) OnNewPacket(dir trace.Dir, id int64, length int) {
	for _, a := range c {
		a.OnNewPacket(dir, id, length)
	}
}

// Next implements Adversary.
func (c composite) Next(step int) []Action {
	var out []Action
	for _, a := range c {
		out = append(out, a.Next(step)...)
	}
	return out
}

// Forge implements PacketForger by delegating to every member that
// forges; a composite with no forging members forges nothing.
func (c composite) Forge(step int) []Forgery {
	var out []Forgery
	for _, a := range c {
		if f, ok := a.(PacketForger); ok {
			out = append(out, f.Forge(step)...)
		}
	}
	return out
}

var (
	_ Adversary = (*Fair)(nil)
	_ Adversary = (*Replay)(nil)
	_ Adversary = (*GuessFlood)(nil)
	_ Adversary = (*CrashLoop)(nil)
	_ Adversary = Silence{}
	_ Adversary = (*Scripted)(nil)
	_ Adversary = composite(nil)
)
