package netlink

import (
	//lint:allow cryptorand pipe fault injection needs seeded, reproducible randomness, not protocol randomness
	"math/rand"
	"sync"
	"time"

	"ghm/internal/clock"
)

// PipeConfig sets the fault behaviour of an in-process pipe. The zero
// value is a perfect link.
type PipeConfig struct {
	// Loss is the probability a packet is silently dropped.
	Loss float64
	// DupProb is the probability a packet is delivered twice.
	DupProb float64
	// ReorderProb is the probability a packet is held back and released
	// later, out of order.
	ReorderProb float64
	// Seed makes the fault schedule reproducible; 0 derives a seed from
	// the clock.
	Seed int64
	// ReleaseEvery is how often held-back packets are released (default
	// 200 microseconds).
	ReleaseEvery time.Duration
	// Clock is the pipe's time source: release pacing and any extended
	// impairments derive from it (nil = wall clock). Under a virtual
	// clock the pipe participates in the quiescence barrier: packets in
	// flight between Send and Recv hold the clock still.
	Clock clock.Clock

	// Burst, when non-nil, layers Gilbert–Elliott two-state burst loss on
	// each direction, on top of (not instead of) the i.i.d. Loss above.
	Burst *GilbertElliott
	// Latency delays every packet by a fixed amount.
	Latency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter) per packet, which
	// also reorders packets whose delays invert.
	Jitter time.Duration
	// Bandwidth serializes packets at the given rate in bytes/second
	// (0 = infinite).
	Bandwidth int
	// Queue caps packets queued in the impairment stage of each direction
	// (0 = DefaultImpairQueue); it only takes effect when some other
	// extended impairment is set.
	Queue int
}

// extended reports whether cfg needs the impairment engine on top of the
// base pipe faults.
func (cfg PipeConfig) extended() bool {
	return cfg.Burst != nil || cfg.Latency > 0 || cfg.Jitter > 0 || cfg.Bandwidth > 0
}

// Pipe returns two connected PacketConn endpoints with cfg's fault
// behaviour applied independently in each direction. Closing either
// endpoint shuts down the whole pipe.
func Pipe(cfg PipeConfig) (PacketConn, PacketConn) {
	if cfg.ReleaseEvery <= 0 {
		cfg.ReleaseEvery = 200 * time.Microsecond
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.System()
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = clk.Seed()
	}
	p := &pipe{stop: make(chan struct{})}
	ab := newPipeDir(cfg, clk, rand.New(rand.NewSource(seed)), p.stop)
	ba := newPipeDir(cfg, clk, rand.New(rand.NewSource(seed+1)), p.stop)
	p.dirs = []*pipeDir{ab, ba}
	a := &pipeEnd{p: p, send: ab, recv: ba}
	b := &pipeEnd{p: p, send: ba, recv: ab}
	if !cfg.extended() {
		return a, b
	}
	// Extended impairments (burst loss, latency, jitter, bandwidth) run in
	// the shared Impair engine, wrapped around each endpoint's egress so
	// each direction gets an independent seeded schedule.
	ic := ImpairConfig{
		Burst:     cfg.Burst,
		Latency:   cfg.Latency,
		Jitter:    cfg.Jitter,
		Bandwidth: cfg.Bandwidth,
		Queue:     cfg.Queue,
	}
	ic.Clock = cfg.Clock
	ia, ib := ic, ic
	ia.Seed, ib.Seed = seed+2, seed+3
	return Impair(a, ia), Impair(b, ib)
}

// freeBuffers bounds a free list (one per pipe direction, one per
// impairment stage). Buffers in flight are not on the list, which only
// ever holds buffers that were in flight together and are idle now, so the
// bound is a ceiling on idle memory, not a working-set size: beyond it a
// burst's extra buffers go back to the garbage collector.
const freeBuffers = 32

// bufList is a bounded free list of buffers shared by the goroutines on
// both sides of a hand-off: the sending side copies the caller's packet
// into a recycled buffer (PacketConn.Send must not retain its argument),
// and whoever is last to hold the copy puts it back. A Receiver keeps its
// delivered messages the same way (Receiver.GiveBack). A buffer put back
// must have no other holder. Both operations are non-blocking; an empty
// list allocates and a full one lets the buffer go.
type bufList chan []byte

// copy returns p's bytes in a buffer of the list's, or a fresh one.
func (l bufList) copy(p []byte) []byte {
	var b []byte
	select {
	case b = <-l:
	default:
	}
	//lint:allow hotpathalloc allocates only when the list is empty (a nil b): for a Receiver that is the delivery copy, the message that outlives the conn's packet buffer
	return append(b[:0], p...)
}

func (l bufList) put(b []byte) {
	if cap(b) == 0 {
		return
	}
	select {
	case l <- b:
	default:
	}
}

// pipe owns the shared shutdown state of both directions.
type pipe struct {
	stop chan struct{}
	once sync.Once
	dirs []*pipeDir
}

func (p *pipe) close() {
	p.once.Do(func() {
		close(p.stop)
		for _, d := range p.dirs {
			<-d.done
			// Undelivered egress packets must not leave the virtual
			// clock's barrier held.
			for {
				select {
				case <-d.out:
					d.release()
					continue
				default:
				}
				break
			}
		}
	})
}

// pipeDir is one direction of the pipe: a goroutine applying the fault
// schedule between an ingress and an egress queue. Every packet in it is a
// buffer of the direction's free list, owned by exactly one stage at a
// time — Send's copy, the queues, the fault goroutine, then the receiving
// end until its next Recv — and each stage that drops a packet puts the
// buffer back.
type pipeDir struct {
	in   chan []byte
	out  chan []byte
	free bufList
	done chan struct{}
	virt *clock.Virtual // non-nil under a virtual clock (quiescence barrier)
}

// hold/release tick the virtual clock's event-count barrier for packets
// in flight through this direction; no-ops on the wall clock.
func (d *pipeDir) hold() {
	if d.virt != nil {
		d.virt.Hold()
	}
}

func (d *pipeDir) release() {
	if d.virt != nil {
		d.virt.Release()
	}
}

func newPipeDir(cfg PipeConfig, clk clock.Clock, rng *rand.Rand, stop chan struct{}) *pipeDir {
	d := &pipeDir{
		// Buffers absorb bursts so a busy fault goroutine does not make
		// Send block in the common case; size is a latency/memory
		// tradeoff, not a correctness one (the protocol tolerates loss).
		in:   make(chan []byte, 256),
		out:  make(chan []byte, 256),
		free: make(bufList, freeBuffers),
		done: make(chan struct{}),
	}
	d.virt, _ = clk.(*clock.Virtual)
	go d.run(cfg, clk, rng, stop)
	return d
}

func (d *pipeDir) run(cfg PipeConfig, clk clock.Clock, rng *rand.Rand, stop chan struct{}) {
	defer close(d.done)
	defer func() {
		// Drain ingress holds at shutdown so the barrier is not wedged.
		for {
			select {
			case <-d.in:
				d.release()
			default:
				return
			}
		}
	}()
	var held [][]byte
	ticker := clk.NewTicker(cfg.ReleaseEvery)
	defer ticker.Stop()

	deliver := func(p []byte) {
		// The egress hold is taken before the ingress hold is released
		// (see below), so the barrier never dips to zero while a packet
		// is being moved across the direction.
		d.hold()
		select {
		case d.out <- p:
		case <-stop:
			d.release()
			d.free.put(p)
		default:
			// Egress full: the link drops the packet, which the protocol
			// is built to tolerate.
			d.release()
			d.free.put(p)
		}
	}
	// route sends one copy of a packet on its way: held back for a later,
	// out-of-order release, or delivered now.
	route := func(p []byte) {
		if rng.Float64() < cfg.ReorderProb {
			// Held packets are covered by the release ticker (a clock
			// deadline), not the barrier.
			held = append(held, p)
		} else {
			deliver(p)
		}
	}

	for {
		select {
		case p := <-d.in:
			if rng.Float64() < cfg.Loss {
				d.release()
				d.free.put(p)
				continue
			}
			if rng.Float64() < cfg.DupProb {
				// The duplicate is a buffer of its own, and copied before
				// the original is delivered: from then on the original is
				// the receiving end's to recycle.
				dup := d.free.copy(p)
				route(p)
				route(dup)
			} else {
				route(p)
			}
			d.release()
		case <-ticker.C():
			// Release half the held packets (at least one) in random
			// order: the queue stays bounded even when retries arrive
			// faster than the release tick, while late packets still
			// overtake earlier ones.
			n := (len(held) + 1) / 2
			for ; n > 0 && len(held) > 0; n-- {
				i := rng.Intn(len(held))
				p := held[i]
				held[i] = held[len(held)-1]
				held = held[:len(held)-1]
				deliver(p)
			}
		case <-stop:
			return
		}
	}
}

// pipeEnd is one endpoint handed to a user.
type pipeEnd struct {
	p    *pipe
	send *pipeDir
	recv *pipeDir
	lent []byte // what Recv last returned: the caller's until the next Recv
}

var _ PacketConn = (*pipeEnd)(nil)

// Send implements PacketConn.
func (e *pipeEnd) Send(p []byte) error {
	// Check closure on its own: in a combined select a ready ingress
	// buffer could win the race against the closed stop channel.
	select {
	case <-e.p.stop:
		return ErrClosed
	default:
	}
	e.send.enqueue(p)
	return nil
}

// enqueue puts a copy of p on the direction's ingress queue, or drops it
// when the queue is full, as a congested link would.
func (d *pipeDir) enqueue(p []byte) {
	cp := d.free.copy(p)
	select {
	case d.in <- cp:
		d.hold()
	default:
		d.free.put(cp)
	}
}

// SendBatch implements engine.BatchConn: one closure check for the whole
// burst, then per-packet enqueue with the same full-ingress drop
// semantics as Send.
func (e *pipeEnd) SendBatch(pkts [][]byte) error {
	select {
	case <-e.p.stop:
		return ErrClosed
	default:
	}
	for _, p := range pkts {
		e.send.enqueue(p)
	}
	return nil
}

// Recv implements PacketConn. The packet it returns is lent (see
// PacketConn.Recv): the next Recv takes the buffer back for a later Send
// to fill.
func (e *pipeEnd) Recv() ([]byte, error) {
	e.recv.free.put(e.lent)
	e.lent = nil
	select {
	case e.lent = <-e.recv.out:
	case <-e.p.stop:
		// Drain anything already queued before reporting closure.
		select {
		case e.lent = <-e.recv.out:
		default:
			return nil, ErrClosed
		}
	}
	e.recv.release()
	return e.lent, nil
}

// Close implements PacketConn; it shuts down both directions.
func (e *pipeEnd) Close() error {
	e.p.close()
	return nil
}
