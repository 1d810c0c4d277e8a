package fabric

import (
	"sync"

	"ghm/internal/netlink"
)

// Port is one end of a fabric link: a netlink.PacketConn whose Send
// path carries the link's model toward the peer port, with the same
// runtime controls as netlink.ImpairedConn (SetBlackout, SetLoss) so
// chaos schedules drive it unchanged. It is the clock-event driver of
// netlink.Link: no goroutine, one clock event per flight.
//
// Ingress has two modes. By default deliveries land in a bounded
// mailbox drained by Recv (goroutine mode; under a virtual clock each
// mailbox packet holds the quiescence barrier until collected). A
// station simulated without goroutines instead calls SetHandler: the
// handler runs inline at the packet's virtual delivery instant, on the
// clock's advancing goroutine.
type Port struct {
	f    *Fabric
	peer *Port
	seed int64

	// link is the egress model for packets this port sends. Under an
	// inline, single-threaded driver its lock is uncontended and costs
	// nanoseconds.
	link netlink.Link

	// Ingress state. down is mu-guarded and set before closed is
	// closed, so an ingress holding mu can never enqueue (and hold the
	// barrier) after closeSelf has drained the mailbox. queue is
	// allocated on first use under mu: a handler-mode port never pays
	// for a mailbox.
	mu       sync.Mutex
	handler  func(p []byte)
	queue    chan []byte
	down     bool
	closed   chan struct{}
	closeOne sync.Once
}

func newPort(f *Fabric, m netlink.LinkModel, seed int64) *Port {
	p := &Port{f: f, seed: seed, closed: make(chan struct{})}
	p.link.Init(m, seed)
	return p
}

// Seed returns this direction's resolved schedule seed for repro output.
func (p *Port) Seed() int64 { return p.seed }

// SetLoss replaces the i.i.d. loss probability of this port's egress at
// runtime (chaos "loss ramp").
func (p *Port) SetLoss(v float64) { p.link.SetLoss(v) }

// SetBlackout partitions this port's egress while on: packets entering
// the link are dropped; packets already in flight still arrive, as on a
// real link.
func (p *Port) SetBlackout(on bool) { p.link.SetBlackout(on) }

// Stats snapshots this port's egress fate counters, in the same shape
// as an impaired conn's so soak results read identically.
func (p *Port) Stats() netlink.ImpairStats { return p.link.Stats() }

// SetHandler switches this port's ingress to inline mode: fn runs at
// each packet's delivery instant on the clock's driving goroutine, and
// must not block. Set it before traffic starts; packets already in the
// mailbox are drained through fn first.
func (p *Port) SetHandler(fn func(pkt []byte)) {
	p.mu.Lock()
	p.handler = fn
	q := p.queue
	p.mu.Unlock()
	for q != nil {
		select {
		case pkt := <-q:
			p.f.virt.Release()
			fn(pkt)
		default:
			return
		}
	}
}

func (p *Port) isClosed() bool {
	select {
	case <-p.closed:
		return true
	default:
		return false
	}
}

// Send implements netlink.PacketConn: the link resolves the packet's
// fate inline and, for each copy that survives, delivery to the peer is
// scheduled as a clock event.
func (p *Port) Send(pkt []byte) error {
	if p.isClosed() {
		return netlink.ErrClosed
	}
	f := p.link.Fate(p.f.clk.Now(), len(pkt))
	if f.N == 0 {
		return nil
	}
	// The copy IS the in-flight packet: the conn contract forbids retaining
	// pkt, so a surviving send must own its bytes.
	cp := append([]byte(nil), pkt...)
	for _, d := range f.Delay[:f.N] {
		// One scheduled-delivery closure per surviving flight; the capture
		// carries the owned copy to the peer.
		p.f.clk.AfterFunc(d, func() { p.land(cp) })
	}
	return nil
}

// land completes one flight: the packet arrives at the peer port.
func (p *Port) land(pkt []byte) {
	p.link.Land()
	p.peer.ingress(pkt)
}

// ingress hands an arrived packet to this port's consumer.
func (p *Port) ingress(pkt []byte) {
	p.mu.Lock()
	if p.down {
		p.mu.Unlock()
		return
	}
	if h := p.handler; h != nil {
		p.mu.Unlock()
		h(pkt)
		return
	}
	select {
	case p.mailboxLocked() <- pkt:
		// The mailbox packet is in flight between goroutines: hold the
		// virtual clock until Recv collects it.
		p.f.virt.Hold()
		p.mu.Unlock()
	default:
		p.mu.Unlock()
		// Mailbox overflow is charged to the sending direction, like the
		// impaired conn's queue cap.
		p.peer.link.Overflow()
	}
}

// mailboxLocked returns the Recv queue, made on first use; p.mu is held.
func (p *Port) mailboxLocked() chan []byte {
	if p.queue == nil {
		p.queue = make(chan []byte, p.link.Model.Queue)
	}
	return p.queue
}

// Recv implements netlink.PacketConn (mailbox mode).
func (p *Port) Recv() ([]byte, error) {
	p.mu.Lock()
	q := p.mailboxLocked()
	p.mu.Unlock()
	select {
	case pkt := <-q:
		p.f.virt.Release()
		return pkt, nil
	case <-p.closed:
		return nil, netlink.ErrClosed
	}
}

// Close implements netlink.PacketConn: it closes both ports of the
// link (closing one end of a pipe kills the pipe). In-flight clock
// events landing later find the ports closed and vanish, as do
// undrained mailbox packets — the link died under them, a fate the
// protocol already tolerates.
func (p *Port) Close() error {
	p.closeSelf()
	p.peer.closeSelf()
	return nil
}

func (p *Port) closeSelf() {
	p.closeOne.Do(func() {
		p.mu.Lock()
		p.down = true
		close(p.closed)
		// Discard stranded mailbox packets, releasing their barrier
		// holds; ingress checks down under mu, so nothing can re-arm a
		// hold after this drain.
		for p.queue != nil {
			select {
			case <-p.queue:
				p.f.virt.Release()
				continue
			default:
			}
			break
		}
		p.mu.Unlock()
	})
}

var _ netlink.PacketConn = (*Port)(nil)
