// Package engine is the unified runtime I/O layer: one Engine owns each
// physical packet conn with a single read pump, demultiplexing inbound
// packets to registered Endpoints by a uvarint endpoint-id frame. It
// subsumes the ad-hoc sharing layers that grew above the stations —
// SharedConn's attach views, a Peer's two directions and ghm.Endpoint's
// slots are all endpoint ids — so station, peer and session counts do not
// multiply goroutines: the goroutine budget is one pump per physical conn
// (plus the process-wide timer wheel).
//
// Framing is wire-compatible with the old tag byte: a uvarint encodes
// ids 0..127 as the identical single byte, and every existing layer
// kept its ids below 64.
//
// The engine deliberately knows nothing about the protocol above it; it
// moves opaque packets, one per Send. It knows one closed error, ErrClosed,
// which netlink re-exports as its own.
package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ghm/internal/metrics"
)

// ErrClosed reports use of a closed endpoint, engine or conn. It is the
// one closed error of the packet path: netlink.ErrClosed is this value,
// and a conn's Recv returns it (or net.ErrClosed) once the conn is closed.
var ErrClosed = errors.New("netlink: closed")

// mailboxDepth is the per-endpoint ingress mailbox depth; overflow is
// shed as link loss (and counted), exactly what the protocol above is
// built for.
const mailboxDepth = 64

// transientDelay paces the pump's retry after a transient read error,
// bounding the spin if the error persists.
const transientDelay = time.Millisecond

// Engine metric names. They are declared constants because the registry
// creates metrics on first use — a typo'd literal silently forks a
// counter (enforced by the metricname analyzer).
const (
	mDemuxDropped    = "link.demux_dropped"
	mOverflowDropped = "link.overflow_dropped"
	mIORetries       = "link.io_retries"
)

// Conn is the transport an Engine owns: an unreliable datagram
// endpoint, structurally identical to netlink.PacketConn. Send must not
// retain p; Close must unblock a pending Recv with ErrClosed (or
// net.ErrClosed), and every other Recv error is a transient fault the
// pump rides out as loss. Recv lends: the slice it
// returns belongs to the conn and is valid until the next Recv, which has
// one caller at a time — the engine's pump (DESIGN.md, "Who owns a
// packet").
type Conn interface {
	Send(p []byte) error
	Recv() ([]byte, error)
	Close() error
}

// Config parameterizes New.
type Config struct {
	// Raw disables endpoint-id framing: the engine carries exactly one
	// endpoint (id 0) and packets travel unmodified. This is how a
	// station that owns a whole conn, or SharedConn's attached endpoints,
	// ride the engine without changing the wire format.
	Raw bool
	// MaxEndpoints bounds endpoint ids to [0, MaxEndpoints). Raw mode
	// forces 1; framed mode defaults to 128 (ids stay one byte on the
	// wire below that).
	MaxEndpoints int
	// Metrics receives the engine's drop accounting (nil uses
	// metrics.Default()): link.demux_dropped, link.overflow_dropped and
	// link.io_retries.
	Metrics *metrics.Registry
	// Wheel is the timer wheel endpoints hand to layers above, and so
	// their clock (default DefaultWheel(), on the wall clock).
	Wheel *Wheel
}

// Engine owns one physical conn: one pump goroutine reads it and
// demultiplexes to endpoints. Create with New; Close stops the pump,
// closes the conn and unblocks every endpoint.
type Engine struct {
	conn Conn
	cfg  Config

	// Drop accounting: no drop is silent.
	demuxDropped    *metrics.Counter // unknown/unparsable endpoint id, no endpoint attached
	overflowDropped *metrics.Counter // endpoint mailbox full
	ioRetries       *metrics.Counter // transient conn read errors ridden out

	slots []atomic.Pointer[Endpoint] // the endpoint registered for each id

	stop chan struct{} // closed by Close
	dead chan struct{} // closed when the pump exits, however it exits
	done chan struct{} // pump joined

	closeOnce sync.Once
	closeErr  error
	closed    atomic.Bool
}

// New starts an engine over conn. The engine owns conn: Engine.Close
// closes it.
func New(conn Conn, cfg Config) *Engine {
	if cfg.Raw {
		cfg.MaxEndpoints = 1
	} else if cfg.MaxEndpoints <= 0 {
		cfg.MaxEndpoints = 128
	}
	if cfg.Wheel == nil {
		cfg.Wheel = DefaultWheel()
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.Default()
	}
	e := &Engine{
		conn:            conn,
		cfg:             cfg,
		demuxDropped:    reg.Counter(mDemuxDropped),
		overflowDropped: reg.Counter(mOverflowDropped),
		ioRetries:       reg.Counter(mIORetries),
		slots:           make([]atomic.Pointer[Endpoint], cfg.MaxEndpoints),
		stop:            make(chan struct{}),
		dead:            make(chan struct{}),
		done:            make(chan struct{}),
	}
	go e.pump()
	return e
}

// Wheel returns the engine's timer wheel.
func (e *Engine) Wheel() *Wheel { return e.cfg.Wheel }

// Endpoint registers (or re-registers) id and returns its endpoint.
// Re-registering routes subsequent inbound packets to the new endpoint
// and closes the superseded one, as its Close would: its Send and Recv
// report ErrClosed and its Closed channel is closed, so a station still
// on it sends nothing more (a receiver's RETRY stops at its next wheel
// tick). This is the semantics SharedConn.Attach is built on: only the
// latest view is a live station's.
func (e *Engine) Endpoint(id int) (*Endpoint, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if id < 0 || id >= len(e.slots) {
		return nil, fmt.Errorf("engine: endpoint id %d out of range [0, %d)", id, len(e.slots))
	}
	ep := &Endpoint{
		eng:    e,
		id:     id,
		slot:   &e.slots[id],
		closed: make(chan struct{}),
	}
	if old := ep.slot.Swap(ep); old != nil {
		old.Close() // it is no longer registered: this detaches nothing
	}
	return ep, nil
}

// Close stops the pump, closes the conn and unblocks every endpoint's
// Recv with ErrClosed. Idempotent; every call waits for the pump.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		e.closed.Store(true)
		close(e.stop)
		e.closeErr = e.conn.Close()
	})
	<-e.done
	return e.closeErr
}

// pump is the engine's single read goroutine: it owns conn.Recv for the
// conn's whole life, no matter how many endpoints come and go above it.
func (e *Engine) pump() {
	defer close(e.done)
	defer close(e.dead)
	// Transient-fault backoff rides the shared wheel: one reusable wheel
	// timer signals wake, so pacing costs no runtime timer and stays
	// under the wheel's accounting like every other retry in the system.
	wake := make(chan struct{}, 1)
	var backoff *Timer // reused across transient faults
	defer func() {
		if backoff != nil {
			backoff.Stop()
		}
	}()
	for {
		p, err := e.conn.Recv()
		if err != nil {
			if errors.Is(err, ErrClosed) || errors.Is(err, net.ErrClosed) {
				return // the conn is gone
			}
			// Transient read fault: indistinguishable from loss, so back
			// off briefly and keep serving instead of dying.
			e.ioRetries.Inc()
			if backoff == nil {
				backoff = e.cfg.Wheel.AfterFunc(transientDelay, func() {
					select {
					case wake <- struct{}{}:
					default:
					}
				})
			} else {
				// The timer has always fired and wake been drained by the
				// time we get back here, so Reset is race-free.
				backoff.Reset(transientDelay)
			}
			select {
			case <-wake:
				continue
			case <-e.stop:
				return
			}
		}
		e.dispatch(p)
	}
}

// dispatch routes one inbound packet: parse the id frame, find the
// endpoint, push or hand to its handler. Every drop is counted — the
// silent-loss paths of the pre-engine pumps are gone. p is lent by the
// conn until the pump's next Recv: a handler has it for the length of the
// call, and the mailbox — the one place a packet outlives that call —
// gets a copy.
func (e *Engine) dispatch(p []byte) {
	id := 0
	body := p
	if !e.cfg.Raw {
		v, n := binary.Uvarint(p)
		if n <= 0 || v >= uint64(len(e.slots)) {
			e.demuxDropped.Inc()
			return
		}
		id, body = int(v), p[n:]
	}
	ep := e.slots[id].Load()
	if ep == nil || ep.isClosed() {
		e.demuxDropped.Inc()
		return
	}
	if ep.wedged.Load() {
		// A wedge is an injected invisible fault: the packet vanishes
		// without a trace, like the half-dead socket it simulates.
		return
	}
	if h := ep.handler.Load(); h != nil {
		(*h)(body)
		return
	}
	if beforeMailbox != nil {
		beforeMailbox()
	}
	// No handler seen: the mailbox path, under the lock SetHandler holds
	// while it hands the endpoint over. A handler stored since the load
	// above gets the packet, after the drain; none can be stored between
	// this check and the enqueue.
	ep.mu.Lock()
	if h := ep.handler.Load(); h != nil {
		ep.mu.Unlock()
		(*h)(body)
		return
	}
	in := ep.mailboxLocked()
	if len(in) < cap(in) { // the pump is the only producer: room seen is room kept
		// The mailbox copy: the packet outlives the conn's receive buffer.
		in <- append([]byte(nil), body...)
		ep.mu.Unlock()
		return
	}
	ep.mu.Unlock()
	e.overflowDropped.Inc()
}

// beforeMailbox, when set, runs in dispatch between the lock-free handler
// check and the mailbox path: the window in which SetHandler can race a
// packet that found no handler. Nil outside the engine's own tests.
var beforeMailbox func()

// framePool recycles send-path framing buffers: Conn.Send must not
// retain its argument, so the buffer is safe to reuse the moment Send
// returns.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 2048)
		return &b
	},
}

// Endpoint is one registered id on an engine: a PacketConn-shaped view
// whose Send frames the id and whose Recv reads the demuxed mailbox.
// Alternatively a layer can register a push handler (SetHandler) and go
// mailbox-free — that is how the stations lose their private recvLoops.
// The mailbox is made on first pull-mode use — a Recv, or a packet that
// arrives while no handler is set — so a push-mode endpoint never has one.
type Endpoint struct {
	eng  *Engine
	id   int
	slot *atomic.Pointer[Endpoint] // the engine's registration for id

	// mu hands the endpoint from mailbox to handler: SetHandler drains and
	// stores under it, and dispatch re-checks the handler under it before
	// it enqueues. The handler fast path does not take it.
	mu      sync.Mutex
	in      chan []byte // the mailbox, made by mailboxLocked; mu-guarded
	handler atomic.Pointer[func(p []byte)]
	wedged  atomic.Bool

	closed    chan struct{}
	closeOnce sync.Once
}

// Wheel returns the engine's shared timer wheel, for layers that need
// retry pacing without goroutines of their own.
func (ep *Endpoint) Wheel() *Wheel { return ep.eng.cfg.Wheel }

// Closed is closed when this endpoint is closed (detached).
func (ep *Endpoint) Closed() <-chan struct{} { return ep.closed }

// Dead is closed when the engine's pump has exited — the conn is gone,
// whether by Close or by an external kill — so a layer blocked on the
// endpoint can surface ErrClosed instead of wedging.
func (ep *Endpoint) Dead() <-chan struct{} { return ep.eng.dead }

func (ep *Endpoint) isClosed() bool {
	select {
	case <-ep.closed:
		return true
	default:
		return false
	}
}

// SetHandler switches the endpoint to push mode: h runs on the pump
// goroutine for every inbound packet and must not block — a blocking
// handler stalls every endpoint on the conn — nor keep p past its return:
// the packet is the conn's receive buffer. Packets already queued in the
// mailbox are first drained through h on the caller's goroutine, so none
// are stranded; the pump's first call to h comes after the drain, never
// during it. The drain runs under the endpoint's lock, so h must not call
// SetHandler or Recv on its own endpoint. The drained mailbox is let go.
func (ep *Endpoint) SetHandler(h func(p []byte)) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for ep.in != nil {
		select {
		case p := <-ep.in:
			h(p)
		default:
			ep.in = nil
		}
	}
	ep.handler.Store(&h)
}

// mailboxLocked returns the mailbox, made on first use; ep.mu is held.
func (ep *Endpoint) mailboxLocked() chan []byte {
	if ep.in == nil {
		ep.in = make(chan []byte, mailboxDepth)
	}
	return ep.in
}

// Wedge simulates a half-dead socket while on: sends are swallowed and
// inbound packets vanish, with no error surfaced anywhere — the failure
// mode only a progress watchdog can detect.
func (ep *Endpoint) Wedge(on bool) { ep.wedged.Store(on) }

// Send frames p with the endpoint id (framed mode) and writes it to the
// conn. The framing buffer is pooled; the conn contract (must not retain
// p) makes reuse safe.
func (ep *Endpoint) Send(p []byte) error {
	if ep.isClosed() {
		return ErrClosed
	}
	if ep.wedged.Load() {
		return nil
	}
	if ep.eng.cfg.Raw {
		return ep.eng.conn.Send(p)
	}
	bufp := framePool.Get().(*[]byte)
	buf := binary.AppendUvarint((*bufp)[:0], uint64(ep.id))
	buf = append(buf, p...)
	err := ep.eng.conn.Send(buf)
	*bufp = buf[:0]
	framePool.Put(bufp)
	return err
}

// Recv blocks for the next packet demuxed to this endpoint. It returns
// ErrClosed once the endpoint is closed, and drains remaining buffered
// packets before reporting a dead engine.
func (ep *Endpoint) Recv() ([]byte, error) {
	ep.mu.Lock()
	in := ep.mailboxLocked()
	ep.mu.Unlock()
	select {
	case p := <-in:
		return p, nil
	case <-ep.closed:
		return nil, ErrClosed
	case <-ep.eng.dead:
		select {
		case p := <-in:
			return p, nil
		default:
			return nil, ErrClosed
		}
	}
}

// Close detaches the endpoint: its Send/Recv fail with ErrClosed and
// inbound packets for its id are counted as demux drops. The engine and
// conn stay up for the other endpoints — a SharedConn view's Close is
// this; closing the whole conn is Engine.Close.
func (ep *Endpoint) Close() error {
	ep.closeOnce.Do(func() {
		close(ep.closed)
		// Only detach if still the registered endpoint: a superseded
		// view's Close must not tear down its successor.
		ep.slot.CompareAndSwap(ep, nil)
	})
	return nil
}
