package netlink

import (
	"sync"
	"time"

	"ghm/internal/clock"
	"ghm/internal/metrics"
)

// ImpairConfig configures an Impair wrapper. The zero value forwards
// packets unchanged.
type ImpairConfig struct {
	// LinkModel is what the link does to packets.
	LinkModel
	// Seed fixes the impairment schedule for reproducibility (0 draws
	// from Clock.Seed; the resolved value is readable via Seed() so it
	// always lands in repro output).
	Seed int64
	// Clock is the link's time source: latency flights and the
	// serialization clock both derive from it (nil = wall clock).
	Clock clock.Clock
	// Metrics receives the link's fate counters; nil uses
	// metrics.Default(). Injected faults become observable numbers here,
	// so a chaos run can cross-check injected against observed loss. The
	// counters are link.*: links sharing a registry share them, so both
	// directions registered in one yield link totals.
	Metrics *metrics.Registry
}

// ImpairedConn applies a LinkModel to the egress (Send) path of any
// PacketConn — pipes and UDP alike — leaving Recv untouched. Wrap both
// endpoints to impair both directions. It is the in-process driver of
// Link: Send asks Link.Fate what becomes of the packet and forwards a copy
// that is due at once. A delayed copy is driven by the clock: on a
// *clock.Virtual it is one clock event, with no goroutine, and on any
// other clock it goes onto the stage's heap of flights, which its one
// goroutine releases off one timer. Beyond the static ImpairConfig, the
// connection exposes runtime controls (SetBlackout, SetLoss) so a chaos
// controller can partition the link or ramp loss while traffic flows.
type ImpairedConn struct {
	conn PacketConn
	link Link
	m    linkMetrics
	clk  clock.Clock
	virt *clock.Virtual // non-nil when clk is virtual: a delayed copy is a clock event
	seed int64          // resolved schedule seed

	mu      sync.Mutex
	flights flightHeap    // delayed copies by release time; Fate's queue cap bounds them
	wake    chan struct{} // one token: the heap has a new head for run to time
	free    bufList       // the delayed packets' copies, recycled once released

	stop      chan struct{}
	ownStop   bool          // stop is this stage's to close, not conn's
	done      chan struct{} // run has returned; nil on a virtual clock, which has no run
	closeOnce sync.Once
}

var _ PacketConn = (*ImpairedConn)(nil)

// Impair wraps conn with cfg's impairments on its Send path.
func Impair(conn PacketConn, cfg ImpairConfig) *ImpairedConn {
	return impair(conn, cfg, nil)
}

// impair is Impair for a conn that closes stop when it closes (nil: the
// stage makes and closes its own). Sharing it is how closing either end
// of a Pipe stops the stages of both.
func impair(conn PacketConn, cfg ImpairConfig, stop chan struct{}) *ImpairedConn {
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
		m:    newLinkMetrics(cfg.Metrics),
		clk:  clk,
		seed: seed,
		free: bufList{max: freeBuffers},
		stop: stop,
	}
	if stop == nil {
		c.stop, c.ownStop = make(chan struct{}), true
	}
	c.link.Init(cfg.LinkModel, seed)
	if c.virt, _ = clk.(*clock.Virtual); c.virt == nil {
		c.wake, c.done = make(chan struct{}, 1), make(chan struct{})
		go c.run()
	}
	return c
}

// Seed returns the resolved impairment schedule seed — the configured
// one, or the clock-drawn default — so a default-seeded run can still
// record a replayable seed in its repro output.
func (c *ImpairedConn) Seed() int64 { return c.seed }

// SetLoss replaces the i.i.d. loss probability at runtime.
func (c *ImpairedConn) SetLoss(p float64) { c.link.SetLoss(p) }

// SetBlackout switches a full partition on or off (see Link.SetBlackout).
func (c *ImpairedConn) SetBlackout(on bool) { c.link.SetBlackout(on) }

// Stats returns the impairment counters so far.
func (c *ImpairedConn) Stats() ImpairStats { return c.link.Stats() }

// Send implements PacketConn: the link decides the packet's fate here,
// before any copy is made. A copy due at once goes straight to the
// underlying conn; a delayed one is copied, and the copy becomes a clock
// event on a virtual clock or goes onto the heap for run.
func (c *ImpairedConn) Send(p []byte) error {
	if isClosed(c.stop) {
		return ErrClosed
	}
	now := c.clk.Now()
	f := c.link.Fate(now, len(p))
	c.m.count(f)
	for _, d := range f.Delay[:f.N] {
		switch {
		case d <= 0:
			c.forward(p)
		case c.virt != nil:
			// One closure a flight: it carries the copy to its instant.
			cp := c.free.copy(p)
			c.virt.AfterFunc(d, func() { c.release(cp) })
		default:
			c.schedule(flight{at: now.Add(d), p: c.free.copy(p)})
		}
	}
	return nil
}

// schedule puts a delayed copy on the heap. A copy that lands behind the
// head is covered by the head's release, which comes first; a new head
// wakes run to re-arm its timer.
func (c *ImpairedConn) schedule(f flight) {
	c.mu.Lock()
	head := len(c.flights) == 0 || f.at.Before(c.flights[0].at)
	c.flights.push(f)
	c.mu.Unlock()
	if head {
		select {
		case c.wake <- struct{}{}:
		default: // a token run has yet to take: it reads the head after
		}
	}
}

// forward hands one copy to the underlying conn: it has landed. An error
// there means the conn is closing; the packet is simply lost, which the
// protocol tolerates.
func (c *ImpairedConn) forward(p []byte) {
	_ = c.conn.Send(p)
	c.link.Land()
	c.m.delivered.Inc()
}

// release forwards a delayed copy that is due and takes the copy back:
// Send must not retain, so once forwarded it is the stage's again.
func (c *ImpairedConn) release(p []byte) {
	c.forward(p)
	c.free.put(p)
}

// drain discards the flights of a closed conn.
func (c *ImpairedConn) drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.flights) > 0 {
		c.free.put(c.flights.pop().p)
	}
}

// Recv implements PacketConn by reading the underlying conn directly:
// impairments apply to this endpoint's egress only.
func (c *ImpairedConn) Recv() ([]byte, error) { return c.conn.Recv() }

// Close implements PacketConn: it stops the impairment engine (dropping
// anything still in flight) and closes the underlying conn. On a virtual
// clock a flight's event still fires, and finds the conn closed.
func (c *ImpairedConn) Close() error {
	c.closeOnce.Do(func() {
		if c.ownStop {
			close(c.stop)
		}
		c.conn.Close()
		if c.done != nil {
			<-c.done
		}
	})
	return nil
}

// run is the wall-clock driver's goroutine: it owns the timer of the
// heap's head, and releases each flight when it is due.
func (c *ImpairedConn) run() {
	defer close(c.done)
	defer c.drain()
	timer := c.clk.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		c.mu.Lock()
		armed := len(c.flights) > 0
		var at time.Time
		if armed {
			at = c.flights[0].at
		}
		c.mu.Unlock()

		var due <-chan time.Time
		if armed {
			if !timer.Stop() {
				select {
				case <-timer.C():
				default:
				}
			}
			timer.Reset(at.Sub(c.clk.Now()))
			due = timer.C()
		}
		select {
		case <-c.wake:
		case now := <-due:
			for {
				c.mu.Lock()
				if len(c.flights) == 0 || c.flights[0].at.After(now) {
					c.mu.Unlock()
					break
				}
				f := c.flights.pop()
				c.mu.Unlock()
				c.release(f.p)
			}
		case <-c.stop:
			return
		}
	}
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
