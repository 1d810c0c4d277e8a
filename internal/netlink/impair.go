package netlink

import (
	"math"
	//lint:allow cryptorand impairment simulation needs seeded, reproducible randomness, not protocol randomness
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ghm/internal/clock"
	"ghm/internal/metrics"
)

// GilbertElliott parameterizes the classic two-state Markov burst-loss
// model: the link alternates between a Good and a Bad state, each with its
// own drop probability, and the state advances once per packet. Long runs
// in the Bad state produce the correlated loss bursts real radio and
// congested links exhibit — a strictly harsher regime than the i.i.d.
// faults of PipeConfig, and exactly the kind of channel the related
// self-stabilizing data-link literature evaluates against.
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

// ImpairConfig configures an Impair wrapper. The zero value forwards
// packets unchanged.
type ImpairConfig struct {
	// Loss is an i.i.d. drop probability applied to every packet (in
	// addition to Burst, when both are set). It can be changed at runtime
	// with SetLoss.
	Loss float64
	// DupProb is the probability a packet is sent twice.
	DupProb float64
	// Burst, when non-nil, applies Gilbert–Elliott two-state burst loss.
	Burst *GilbertElliott
	// Latency delays every packet by a fixed amount.
	Latency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter) per packet.
	// Because each packet draws independently, jitter reorders packets.
	Jitter time.Duration
	// Bandwidth serializes packets at the given rate in bytes/second
	// (0 = infinite). Packets queue behind the serialization clock.
	Bandwidth int
	// Queue caps packets waiting inside the impairment stage (serialization
	// backlog plus in-flight latency); beyond it packets are dropped, as a
	// full router queue would. 0 means DefaultImpairQueue.
	Queue int
	// Seed fixes the impairment schedule for reproducibility (0 draws
	// from Clock.Seed; the resolved value is readable via Seed() so it
	// always lands in repro output).
	Seed int64
	// Clock is the link's time source: blackout windows, latency flights
	// and the serialization clock all derive from it (nil = wall clock).
	Clock clock.Clock
	// Metrics receives the link's fate counters; nil uses
	// metrics.Default(). Injected faults become observable numbers here,
	// so a chaos run can cross-check injected against observed loss.
	Metrics *metrics.Registry
	// MetricsPrefix namespaces this link's counters (default "link").
	// Links sharing a registry and prefix share counters: registering both
	// directions under one prefix yields link totals.
	MetricsPrefix string
}

// DefaultImpairQueue is the queue cap when ImpairConfig.Queue is zero.
const DefaultImpairQueue = 256

// ImpairStats counts an impaired link's fate decisions since creation.
type ImpairStats struct {
	Sent         int64 // packets accepted from the caller
	Delivered    int64 // packets released to the underlying conn
	Duplicated   int64 // extra copies injected
	DropIID      int64 // drops by the i.i.d. Loss probability
	DropBurst    int64 // drops by the Gilbert–Elliott state machine
	DropBlackout int64 // drops during a blackout window
	DropQueue    int64 // drops because the queue cap was exceeded
}

// ImpairedConn applies configurable impairments to the egress (Send) path
// of any PacketConn — pipes and UDP alike — leaving Recv untouched. Wrap
// both endpoints to impair both directions. Beyond the static
// ImpairConfig, the connection exposes runtime controls (SetBlackout,
// Blackout, SetLoss) so a chaos controller can partition the link or ramp
// loss while traffic flows.
type ImpairedConn struct {
	conn PacketConn
	cfg  ImpairConfig
	m    linkMetrics
	clk  clock.Clock
	virt *clock.Virtual // non-nil when clk is virtual: Send holds the barrier
	seed int64          // resolved schedule seed

	in        chan []byte
	free      bufList // the stage's packet copies, recycled once released or dropped
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once

	loss atomic.Uint64 // math.Float64bits of the current i.i.d. loss

	bkMu     sync.Mutex
	bkManual bool
	bkUntil  time.Time

	sent, delivered, duplicated atomic.Int64
	dropIID, dropBurst          atomic.Int64
	dropBlackout, dropQueue     atomic.Int64
}

var _ PacketConn = (*ImpairedConn)(nil)

// Impair wraps conn with cfg's impairments on its Send path.
func Impair(conn PacketConn, cfg ImpairConfig) *ImpairedConn {
	if cfg.Queue <= 0 {
		cfg.Queue = DefaultImpairQueue
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.System()
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = clk.Seed()
	}
	c := &ImpairedConn{
		conn: conn,
		cfg:  cfg,
		m:    newLinkMetrics(cfg.Metrics, cfg.MetricsPrefix),
		clk:  clk,
		seed: seed,
		in:   make(chan []byte, cfg.Queue),
		free: make(bufList, freeBuffers),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	c.virt, _ = clk.(*clock.Virtual)
	c.loss.Store(math.Float64bits(cfg.Loss))
	go c.run(rand.New(rand.NewSource(seed)))
	return c
}

// Seed returns the resolved impairment schedule seed — the configured
// one, or the clock-drawn default — so a default-seeded run can still
// record a replayable seed in its repro output.
func (c *ImpairedConn) Seed() int64 { return c.seed }

// SetLoss replaces the i.i.d. loss probability at runtime (chaos "loss
// ramp"). Burst, latency and bandwidth settings are unaffected.
func (c *ImpairedConn) SetLoss(p float64) { c.loss.Store(math.Float64bits(p)) }

// SetBlackout switches a full partition on or off: while on, every packet
// entering the impairment stage is dropped. Packets already past the stage
// (in their latency flight) still arrive, as they would on a real link.
func (c *ImpairedConn) SetBlackout(on bool) {
	c.bkMu.Lock()
	c.bkManual = on
	c.bkMu.Unlock()
}

// Blackout partitions the link for the next d, independently of
// SetBlackout. Overlapping windows extend each other.
func (c *ImpairedConn) Blackout(d time.Duration) {
	c.bkMu.Lock()
	if until := c.clk.Now().Add(d); until.After(c.bkUntil) {
		c.bkUntil = until
	}
	c.bkMu.Unlock()
}

func (c *ImpairedConn) blackedOut(now time.Time) bool {
	c.bkMu.Lock()
	defer c.bkMu.Unlock()
	return c.bkManual || now.Before(c.bkUntil)
}

// Stats returns the impairment counters so far.
func (c *ImpairedConn) Stats() ImpairStats {
	return ImpairStats{
		Sent:         c.sent.Load(),
		Delivered:    c.delivered.Load(),
		Duplicated:   c.duplicated.Load(),
		DropIID:      c.dropIID.Load(),
		DropBurst:    c.dropBurst.Load(),
		DropBlackout: c.dropBlackout.Load(),
		DropQueue:    c.dropQueue.Load(),
	}
}

// Send implements PacketConn: the packet enters the impairment stage and
// is released to the underlying conn according to the configured schedule.
func (c *ImpairedConn) Send(p []byte) error {
	select {
	case <-c.stop:
		return ErrClosed
	default:
	}
	c.sent.Add(1)
	c.m.sent.Inc()
	cp := c.free.copy(p)
	select {
	case c.in <- cp:
		if c.virt != nil {
			// Virtual time must not advance past a packet sitting in the
			// ingress channel; the run goroutine releases the hold once it
			// has scheduled (or dropped) the packet.
			c.virt.Hold()
		}
	default:
		// Ingress burst beyond the queue cap: the router queue is full.
		c.free.put(cp)
		c.dropQueue.Add(1)
		c.m.dropQueue.Inc()
	}
	return nil
}

// Recv implements PacketConn by reading the underlying conn directly:
// impairments apply to this endpoint's egress only.
func (c *ImpairedConn) Recv() ([]byte, error) { return c.conn.Recv() }

// Close implements PacketConn: it stops the impairment engine (dropping
// anything still queued) and closes the underlying conn.
func (c *ImpairedConn) Close() error {
	c.closeOnce.Do(func() {
		close(c.stop)
		c.conn.Close()
		<-c.done
	})
	return nil
}

// flight is a packet scheduled for release at a point in time.
type flight struct {
	at time.Time
	p  []byte
}

// flightHeap is a binary min-heap of flights by release time, typed so
// that pushing and popping a flight boxes nothing.
type flightHeap []flight

func (h *flightHeap) push(f flight) {
	s := append(*h, f)
	*h = s
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s[i].at.Before(s[parent].at) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the earliest flight; the heap must not be empty.
func (h *flightHeap) pop() flight {
	s := *h
	f := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = flight{}
	s = s[:n]
	*h = s
	for i := 0; ; {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < n; c++ {
			if s[c].at.Before(s[least].at) {
				least = c
			}
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return f
}

// run is the impairment engine: one goroutine owns the RNG, the
// Gilbert–Elliott state and the serialization clock, so Send stays safe
// from any number of goroutines.
func (c *ImpairedConn) run(rng *rand.Rand) {
	defer close(c.done)
	defer func() {
		// Packets stranded in the ingress channel at shutdown must not
		// leave the virtual clock's barrier held.
		if c.virt == nil {
			return
		}
		for {
			select {
			case <-c.in:
				c.virt.Release()
			default:
				return
			}
		}
	}()
	var (
		h         flightHeap
		bad       bool      // Gilbert–Elliott state
		lastTxEnd time.Time // serialization clock for Bandwidth
	)
	timer := c.clk.NewTimer(time.Hour)
	defer timer.Stop()

	// schedule takes ownership of p, a buffer of c.free. A full queue's
	// drop leaves p to the garbage collector, not the free list: the
	// caller may still read it to make a duplicate.
	schedule := func(p []byte, now time.Time) {
		if len(h) >= c.cfg.Queue {
			c.dropQueue.Add(1)
			c.m.dropQueue.Inc()
			return
		}
		start := now
		if c.cfg.Bandwidth > 0 {
			if lastTxEnd.After(start) {
				start = lastTxEnd
			}
			tx := time.Duration(float64(len(p)) / float64(c.cfg.Bandwidth) * float64(time.Second))
			lastTxEnd = start.Add(tx)
			start = lastTxEnd
		}
		release := start.Add(c.cfg.Latency)
		if c.cfg.Jitter > 0 {
			release = release.Add(time.Duration(rng.Int63n(int64(c.cfg.Jitter))))
		}
		if release.After(now) {
			c.m.delayed.Inc()
		}
		h.push(flight{at: release, p: p})
	}

	release := func(now time.Time) {
		for len(h) > 0 && !h[0].at.After(now) {
			f := h.pop()
			// Errors here mean the underlying conn is closing; the
			// packet is simply lost, which the protocol tolerates.
			_ = c.conn.Send(f.p)
			c.free.put(f.p) // Send must not retain: the copy is the stage's again
			c.delivered.Add(1)
			c.m.delivered.Inc()
		}
	}

	for {
		var due <-chan time.Time
		if len(h) > 0 {
			if !timer.Stop() {
				select {
				case <-timer.C():
				default:
				}
			}
			timer.Reset(h[0].at.Sub(c.clk.Now()))
			due = timer.C()
		}
		select {
		case p := <-c.in:
			if c.virt != nil {
				c.virt.Release()
			}
			now := c.clk.Now()
			if c.blackedOut(now) {
				c.free.put(p)
				c.dropBlackout.Add(1)
				c.m.dropBlackout.Inc()
				continue
			}
			if ge := c.cfg.Burst; ge != nil {
				if bad {
					if rng.Float64() < ge.PBadGood {
						bad = false
					}
				} else if rng.Float64() < ge.PGoodBad {
					bad = true
				}
				stateLoss := ge.LossGood
				if bad {
					stateLoss = ge.LossBad
				}
				if rng.Float64() < stateLoss {
					c.free.put(p)
					c.dropBurst.Add(1)
					c.m.dropBurst.Inc()
					continue
				}
			}
			if rng.Float64() < math.Float64frombits(c.loss.Load()) {
				c.free.put(p)
				c.dropIID.Add(1)
				c.m.dropIID.Inc()
				continue
			}
			schedule(p, now)
			if rng.Float64() < c.cfg.DupProb {
				c.duplicated.Add(1)
				c.m.duplicated.Inc()
				// A copy of its own: the first to be released is recycled
				// while the other is still in flight. p is still ours to read
				// here — nothing is released before release below.
				schedule(c.free.copy(p), now)
			}
			// Zero-latency packets are due immediately; releasing them
			// here keeps the queue from backing up under ingress bursts.
			release(c.clk.Now())
		case <-due:
			release(c.clk.Now())
		case <-c.stop:
			return
		}
	}
}
