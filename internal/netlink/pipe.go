package netlink

import (
	"sync"

	"ghm/internal/clock"
)

// PipeConfig sets the fault behaviour of an in-process pipe. The zero
// value is a perfect link.
type PipeConfig struct {
	// LinkModel is what each direction does to packets, independently of
	// the other.
	LinkModel
	// Seed makes the fault schedule reproducible; 0 derives a seed from
	// the clock.
	Seed int64
	// Clock is the pipe's time source (nil = wall clock). Under a virtual
	// clock the pipe participates in the quiescence barrier: packets in
	// flight between Send and Recv hold the clock still.
	Clock clock.Clock
}

// Pipe returns two connected PacketConn endpoints. A perfect pipe is a
// hand-off queue in each direction and no goroutine: Send copies the
// packet onto the queue and Recv takes it off. A faulty one is that with
// an impairment stage (Impair, one goroutine) on each endpoint's egress,
// so each direction gets an independent seeded schedule. Closing either
// endpoint shuts down the whole pipe.
func Pipe(cfg PipeConfig) (PacketConn, PacketConn) {
	virt, _ := cfg.Clock.(*clock.Virtual)
	p := &pipe{stop: make(chan struct{})}
	for i := range p.dirs {
		p.dirs[i] = pipeDir{
			ready: make(chan struct{}, 1),
			free:  bufList{max: freeBuffers},
			virt:  virt,
		}
	}
	a := &pipeEnd{p: p, send: &p.dirs[0], recv: &p.dirs[1]}
	b := &pipeEnd{p: p, send: &p.dirs[1], recv: &p.dirs[0]}
	if !cfg.LinkModel.faulty() {
		return a, b
	}
	ic := ImpairConfig{LinkModel: cfg.LinkModel, Seed: cfg.Seed, Clock: cfg.Clock}
	ia := impair(a, ic, p.stop)
	if ic.Seed != 0 { // 0: each stage draws its own from the clock
		ic.Seed++
	}
	return ia, impair(b, ic, p.stop)
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
// list allocates and a full one (max buffers) lets the buffer go.
//
// The list is a stack that grows as buffers come back and never shrinks,
// so it holds the slots of its high-water mark, not of max: a list that
// never sees a buffer returned costs nothing but its header, and a steady
// state allocates nothing.
type bufList struct {
	mu   sync.Mutex
	bufs [][]byte
	max  int
}

// copy returns p's bytes in a buffer of the list's, or a fresh one.
func (l *bufList) copy(p []byte) []byte {
	var b []byte
	l.mu.Lock()
	if n := len(l.bufs); n > 0 {
		b = l.bufs[n-1]
		l.bufs[n-1] = nil
		l.bufs = l.bufs[:n-1]
	}
	l.mu.Unlock()
	// Allocates only when the list is empty (a nil b): for a Receiver that
	// is the delivery copy, the message that outlives the conn's packet
	// buffer.
	return append(b[:0], p...)
}

func (l *bufList) put(b []byte) {
	if cap(b) == 0 {
		return
	}
	l.mu.Lock()
	if len(l.bufs) < l.max {
		l.bufs = append(l.bufs, b)
	}
	l.mu.Unlock()
}

// pipe owns the shared shutdown state of both directions.
type pipe struct {
	stop chan struct{}
	once sync.Once
	dirs [2]pipeDir
}

func (p *pipe) close() {
	p.once.Do(func() {
		close(p.stop)
		for i := range p.dirs {
			p.dirs[i].drain()
		}
	})
}

// pipeDir is one direction of the pipe: a queue between one end's Send
// and the other end's Recv. Every packet in it is a buffer of the
// direction's free list, owned by exactly one stage at a time — Send's
// copy, the queue, then the receiving end until its next Recv.
//
// The queue is a ring that holds up to 512 packets, deep enough to absorb
// a burst while the reader is busy; beyond that the tail is dropped, as a
// congested link would (the protocol tolerates loss). 512 is a ceiling,
// not an allocation: the ring starts at 8 slots, doubles when a packet
// finds it full, and never shrinks, so a direction holds the slots of its
// high-water mark and a steady state allocates nothing.
type pipeDir struct {
	mu   sync.Mutex
	ring [][]byte // queued packets from head, n of them; len is a power of two
	head int
	n    int

	ready chan struct{} // one token: the queue may be non-empty
	free  bufList
	virt  *clock.Virtual // nil unless the clock is virtual: a queued packet holds its barrier
}

// enqueue puts a copy of p on the direction's queue, or drops it when
// the queue is full.
func (d *pipeDir) enqueue(p []byte) {
	cp := d.free.copy(p)
	d.mu.Lock()
	if d.n == len(d.ring) {
		if d.n == 512 {
			d.mu.Unlock()
			d.free.put(cp) // dropped at the tail
			return
		}
		grown := make([][]byte, max(8, 2*d.n))
		for i := 0; i < d.n; i++ {
			grown[i] = d.ring[(d.head+i)&(len(d.ring)-1)]
		}
		d.ring, d.head = grown, 0
	}
	d.ring[(d.head+d.n)&(len(d.ring)-1)] = cp
	d.n++
	d.virt.Hold() // until Recv collects it, or a drain discards it
	d.mu.Unlock()
	d.signal()
}

// dequeue takes the packet at the head of the queue, if there is one. A
// packet left behind it re-posts the token, so a wake-up is never lost
// to a second reader.
func (d *pipeDir) dequeue() ([]byte, bool) {
	d.mu.Lock()
	if d.n == 0 {
		d.mu.Unlock()
		return nil, false
	}
	cp := d.ring[d.head]
	d.ring[d.head] = nil
	d.head = (d.head + 1) & (len(d.ring) - 1)
	d.n--
	more := d.n > 0
	d.mu.Unlock()
	if more {
		d.signal()
	}
	return cp, true
}

// signal posts the ready token, unless one is already posted.
func (d *pipeDir) signal() {
	select {
	case d.ready <- struct{}{}:
	default:
	}
}

// drain discards what is queued on a closed pipe: undelivered packets
// must not leave the virtual clock's barrier held.
func (d *pipeDir) drain() {
	for {
		cp, ok := d.dequeue()
		if !ok {
			return
		}
		d.virt.Release()
		d.free.put(cp)
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

func (e *pipeEnd) closed() bool { return isClosed(e.p.stop) }

// isClosed reports whether a stop channel has been closed.
func isClosed(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// Send implements PacketConn.
func (e *pipeEnd) Send(p []byte) error {
	if e.closed() {
		return ErrClosed
	}
	e.send.enqueue(p)
	// A Send that raced Close: if the pipe closed before the packet was
	// queued, its drain missed it, so drain again.
	if e.closed() {
		e.send.drain()
	}
	return nil
}

// Recv implements PacketConn. The packet it returns is lent (see
// PacketConn.Recv): the next Recv takes the buffer back for a later Send
// to fill.
func (e *pipeEnd) Recv() ([]byte, error) {
	e.recv.free.put(e.lent)
	e.lent = nil
	for {
		if e.closed() {
			return nil, ErrClosed
		}
		if cp, ok := e.recv.dequeue(); ok {
			e.recv.virt.Release()
			e.lent = cp
			return cp, nil
		}
		select {
		case <-e.recv.ready:
		case <-e.p.stop:
		}
	}
}

// Close implements PacketConn; it shuts down both directions.
func (e *pipeEnd) Close() error {
	e.p.close()
	return nil
}
