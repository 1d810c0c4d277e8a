package netlink

import (
	"sync"
	"time"

	"ghm/internal/clock"
)

// GilbertElliott parameterizes the classic two-state Markov burst-loss
// model: the link alternates between a Good and a Bad state, each with its
// own drop probability, and the state advances once per packet. Long runs
// in the Bad state produce the correlated loss bursts real radio and
// congested links exhibit — a strictly harsher regime than i.i.d. loss,
// and exactly the kind of channel the related self-stabilizing data-link
// literature evaluates against.
type GilbertElliott struct {
	// PGoodBad is the per-packet probability of a Good -> Bad transition.
	PGoodBad float64
	// PBadGood is the per-packet probability of a Bad -> Good transition.
	PBadGood float64
	// LossGood is the drop probability while in the Good state.
	LossGood float64
	// LossBad is the drop probability while in the Bad state.
	LossBad float64
}

// LinkModel is the paper's channel (§2.3: it may lose, duplicate and
// reorder packets, nothing else) with numbers on it, for one direction
// of a link. It is the one impairment vocabulary of the runtime and the
// simulator: PipeConfig and ImpairConfig embed it, a chaos scenario's
// link profile is it (hence the JSON names), sim.NewNetLike takes it, and
// Link.Fate is the one place it is acted on. The zero value is a perfect
// link.
type LinkModel struct {
	// Loss is an i.i.d. drop probability applied to every packet, on top
	// of Burst when both are set. Link.SetLoss changes it at runtime.
	Loss float64 `json:"loss,omitempty"`
	// DupProb is the probability a packet is delivered twice.
	DupProb float64 `json:"dupProb,omitempty"`
	// ReorderProb is the probability a packet is held back, so that
	// packets sent after it arrive before it.
	ReorderProb float64 `json:"reorderProb,omitempty"`
	// ReleaseEvery scales the hold: a held packet waits a uniform extra
	// delay in [0, 2·ReleaseEvery), ReleaseEvery in the mean (default
	// 200 microseconds).
	ReleaseEvery time.Duration `json:"releaseEvery,omitempty"`
	// Burst, when non-nil, applies Gilbert–Elliott two-state burst loss.
	Burst *GilbertElliott `json:"burst,omitempty"`
	// Latency delays every packet by a fixed amount.
	Latency time.Duration `json:"latency,omitempty"`
	// Jitter adds a uniform random delay in [0, Jitter) per packet.
	// Because each packet draws independently, jitter reorders packets.
	Jitter time.Duration `json:"jitter,omitempty"`
	// Bandwidth serializes packets at the given rate in bytes/second
	// (0 = infinite). Packets queue behind the serialization clock.
	Bandwidth int `json:"bandwidth,omitempty"`
	// Queue caps the packets in flight (serialization backlog plus
	// latency, jitter and hold); beyond it packets are dropped, as a
	// full router queue would. 0 means DefaultLinkQueue.
	Queue int `json:"queue,omitempty"`
}

// DefaultLinkQueue is the in-flight cap when LinkModel.Queue is zero.
const DefaultLinkQueue = 256

// faulty reports whether the model ever drops, copies or delays a packet.
func (m LinkModel) faulty() bool {
	m.Queue, m.ReleaseEvery = 0, 0
	return m != LinkModel{}
}

// ImpairStats counts a link direction's fate decisions since creation.
type ImpairStats struct {
	Sent         int64 // packets accepted from the caller
	Delivered    int64 // packets that reached the far end
	Duplicated   int64 // extra copies injected
	DropIID      int64 // drops by the i.i.d. Loss probability
	DropBurst    int64 // drops by the Gilbert–Elliott state machine
	DropBlackout int64 // drops during a blackout
	DropQueue    int64 // drops because the queue cap was exceeded
}

// Cause says why Fate dropped a packet; the zero Cause is no drop.
type Cause uint8

const (
	DropIID Cause = iota + 1
	DropBurst
	DropBlackout
	DropQueue
)

// Fate is what a link does with one packet: it drops it (N is 0 and Drop
// says why) or releases N copies, copy i after Delay[i]. Dup reports that
// the link made a second copy; the queue cap can still drop either.
type Fate struct {
	Drop  Cause
	Dup   bool
	N     int
	Delay [2]time.Duration
}

// Link is the state of one link direction — the Gilbert–Elliott bit, the
// serialization clock, the packets in flight, the blackout and the
// runtime loss rate — behind one seeded clock.SplitMix stream. It has no
// clock, goroutine or buffer of its own. It has two drivers: the
// impairment stage (ImpairedConn: one clock event a delayed copy on a
// *clock.Virtual, a flight heap under one goroutine and its timer on the
// wall clock) and sim.NewNetLike on the simulator's steps. A driver asks
// Fate what happens to each packet, makes that happen on its clock, and
// reports each arrival with Land. Every method is safe from any
// goroutine.
type Link struct {
	// Model is the link's model with its defaults resolved; read-only
	// after Init. A driver's hand-off queue of Model.Queue slots always
	// has room for what Fate releases.
	Model LinkModel

	mu       sync.Mutex
	rng      clock.SplitMix
	bad      bool      // Gilbert–Elliott state
	txEnd    time.Time // when the serialization clock is next free
	loss     float64
	dark     bool // SetBlackout
	inflight int  // released by Fate, not yet landed
	stats    ImpairStats
}

// Init readies l to judge packets by m on the stream seed names. Call it
// once, before any other method.
func (l *Link) Init(m LinkModel, seed int64) {
	if m.Queue <= 0 {
		m.Queue = DefaultLinkQueue
	}
	if m.ReleaseEvery <= 0 {
		m.ReleaseEvery = 200 * time.Microsecond
	}
	l.Model = m
	l.rng = clock.SplitMix(seed)
	l.loss = m.Loss
}

// Fate decides what happens to a packet of size bytes entering the link
// at now. It draws from the stream in a fixed order — burst transition,
// burst loss, i.i.d. loss, duplication, then per copy jitter and hold —
// and, the i.i.d. draw apart, draws nothing for a feature that is off, so
// a seed's schedule does not depend on the features a model leaves out.
func (l *Link) Fate(now time.Time, size int) (f Fate) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats.Sent++
	if f.Drop = l.lose(); f.Drop != 0 {
		return f
	}
	copies := 1
	if l.Model.DupProb > 0 && l.rng.Float64() < l.Model.DupProb {
		copies, f.Dup = 2, true
		l.stats.Duplicated++
	}
	for ; copies > 0; copies-- {
		if l.inflight >= l.Model.Queue {
			l.stats.DropQueue++
			continue
		}
		l.inflight++
		f.Delay[f.N] = l.delay(now, size)
		f.N++
	}
	if f.N == 0 {
		f.Drop = DropQueue
	}
	return f
}

// lose decides, and counts, whether the link drops the packet outright.
func (l *Link) lose() Cause {
	if l.dark {
		l.stats.DropBlackout++
		return DropBlackout
	}
	if ge := l.Model.Burst; ge != nil {
		flip, loss := ge.PGoodBad, ge.LossGood
		if l.bad {
			flip = ge.PBadGood
		}
		if l.rng.Float64() < flip {
			l.bad = !l.bad
		}
		if l.bad {
			loss = ge.LossBad
		}
		if l.rng.Float64() < loss {
			l.stats.DropBurst++
			return DropBurst
		}
	}
	if l.rng.Float64() < l.loss {
		l.stats.DropIID++
		return DropIID
	}
	return 0
}

// delay returns how long after now one copy of the packet comes out, and
// moves the serialization clock past it.
func (l *Link) delay(now time.Time, size int) time.Duration {
	at := now
	if l.Model.Bandwidth > 0 {
		if l.txEnd.After(at) {
			at = l.txEnd
		}
		at = at.Add(time.Duration(float64(size) / float64(l.Model.Bandwidth) * float64(time.Second)))
		l.txEnd = at
	}
	at = at.Add(l.Model.Latency)
	if l.Model.Jitter > 0 {
		at = at.Add(time.Duration(l.rng.Int63n(int64(l.Model.Jitter))))
	}
	if l.Model.ReorderProb > 0 && l.rng.Float64() < l.Model.ReorderProb {
		at = at.Add(time.Duration(l.rng.Int63n(2 * int64(l.Model.ReleaseEvery))))
	}
	return at.Sub(now)
}

// Land retires one flight Fate released: the copy has reached the far end.
func (l *Link) Land() {
	l.mu.Lock()
	l.inflight--
	l.stats.Delivered++
	l.mu.Unlock()
}

// Overflow counts a packet dropped because a queue of the driver's own
// was full — a queue drop the link did not decide.
func (l *Link) Overflow() {
	l.mu.Lock()
	l.stats.DropQueue++
	l.mu.Unlock()
}

// SetLoss replaces the i.i.d. loss probability at runtime (chaos "loss
// ramp"). Burst, latency and bandwidth settings are unaffected.
func (l *Link) SetLoss(p float64) {
	l.mu.Lock()
	l.loss = p
	l.mu.Unlock()
}

// SetBlackout switches a full partition on or off: while on, every packet
// entering the link is dropped. Packets already in flight still arrive,
// as they would on a real link.
func (l *Link) SetBlackout(on bool) {
	l.mu.Lock()
	l.dark = on
	l.mu.Unlock()
}

// Stats returns the fate counters so far.
func (l *Link) Stats() ImpairStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}
