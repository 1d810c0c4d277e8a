// Package engine is the unified runtime I/O layer: one Engine owns each
// physical packet conn with a single read pump, demultiplexing inbound
// packets to registered Endpoints by a uvarint endpoint-id frame. It
// subsumes the ad-hoc sharing layers that grew above the stations —
// SharedConn's attach views, a Peer's two directions and mux's lane ids
// are all endpoint ids now — so lane, peer and session counts no longer
// multiply goroutines: the goroutine budget is one pump per physical conn
// (plus the process-wide timer wheel).
//
// Framing is wire-compatible with the old tag byte: a uvarint encodes
// ids 0..127 as the identical single byte, and every existing layer
// kept its ids below 64.
//
// The engine deliberately knows nothing about the protocol above it; it
// moves opaque packets. Error identity is injected (Config.ClosedErr,
// Config.IsFatal) so the layers above keep their own sentinel errors.
package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ghm/internal/metrics"
)

// ErrClosed is the default closed-endpoint error; layers usually inject
// their own via Config.ClosedErr.
var ErrClosed = errors.New("engine: closed")

// defaultBuffer is the per-endpoint ingress mailbox depth; overflow is
// shed as link loss (and counted), exactly what the protocol above is
// built for.
const defaultBuffer = 64

// Engine metric names. They are declared constants because the registry
// creates metrics on first use — a typo'd literal silently forks a
// counter (enforced by the metricname analyzer).
const (
	mDemuxDropped    = "link.demux_dropped"
	mOverflowDropped = "link.overflow_dropped"
	mIORetries       = "link.io_retries"
	// mEpPrefix and mEpSuffix build the per-endpoint overflow gauge name:
	// link.ep<id>.overflow_dropped.
	mEpPrefix = "link.ep"
	mEpSuffix = ".overflow_dropped"
)

// Conn is the transport an Engine owns: an unreliable datagram
// endpoint, structurally identical to netlink.PacketConn. Send must not
// retain p; Close must unblock a pending Recv. Recv lends: the slice it
// returns belongs to the conn and is valid until the next Recv, which has
// one caller at a time — the engine's pump (DESIGN.md, "Who owns a
// packet").
type Conn interface {
	Send(p []byte) error
	Recv() ([]byte, error)
	Close() error
}

// BatchConn is optionally implemented by conns that can accept several
// packets in one call (sendmmsg-shaped). Endpoint.SendBatch detects it
// and flushes a whole burst — a windowed station's wheel firing, a
// handler invocation's replies — in one conn call instead of one per
// packet. SendBatch must not retain pkts or any element.
type BatchConn interface {
	SendBatch(pkts [][]byte) error
}

// Config parameterizes New.
type Config struct {
	// Raw disables endpoint-id framing: the engine carries exactly one
	// endpoint (id 0) and packets travel unmodified. This is how a
	// station that owns a whole conn, or SharedConn's attach views, ride
	// the engine without changing the wire format.
	Raw bool
	// MaxEndpoints bounds endpoint ids to [0, MaxEndpoints). Raw mode
	// forces 1; framed mode defaults to 128 (ids stay one byte on the
	// wire below that).
	MaxEndpoints int
	// Buffer is the per-endpoint ingress mailbox depth (default 64).
	Buffer int
	// ClosedErr is returned by endpoint Send/Recv once the endpoint or
	// engine is closed (default ErrClosed).
	ClosedErr error
	// IsFatal classifies pump read errors: fatal errors kill the pump
	// (the conn is gone), others are transient faults ridden out with a
	// TransientDelay backoff. Nil treats every error as fatal.
	IsFatal func(error) bool
	// TransientDelay paces pump retries after a transient read error
	// (default 1ms).
	TransientDelay time.Duration
	// Metrics receives the engine's drop accounting (nil uses
	// metrics.Default()): link.demux_dropped, link.overflow_dropped,
	// link.io_retries, and per-endpoint overflow gauges
	// link.ep<id>.overflow_dropped in framed mode.
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

	reg *metrics.Registry
	// Drop accounting: no drop is silent.
	demuxDropped    *metrics.Counter // unknown/unparsable endpoint id, no endpoint attached
	overflowDropped *metrics.Counter // endpoint mailbox full
	ioRetries       *metrics.Counter // transient conn read errors ridden out

	slots []slot

	stop chan struct{} // closed by Close
	dead chan struct{} // closed when the pump exits, however it exits
	done chan struct{} // pump joined

	closeOnce sync.Once
	closeErr  error
	closed    atomic.Bool
}

// slot is one endpoint id's registration. The overflow counter lives in
// the slot, not the endpoint, so per-endpoint gauges survive attach
// views being replaced.
type slot struct {
	ep        atomic.Pointer[Endpoint]
	overflow  atomic.Int64
	gaugeOnce sync.Once
	dropGauge func() // set inside gaugeOnce; Engine.Close calls it
}

// New starts an engine over conn. The engine owns conn: Engine.Close
// closes it.
func New(conn Conn, cfg Config) *Engine {
	if cfg.Raw {
		cfg.MaxEndpoints = 1
	} else if cfg.MaxEndpoints <= 0 {
		cfg.MaxEndpoints = 128
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = defaultBuffer
	}
	if cfg.ClosedErr == nil {
		cfg.ClosedErr = ErrClosed
	}
	if cfg.TransientDelay <= 0 {
		cfg.TransientDelay = time.Millisecond
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
		reg:             reg,
		demuxDropped:    reg.Counter(mDemuxDropped),
		overflowDropped: reg.Counter(mOverflowDropped),
		ioRetries:       reg.Counter(mIORetries),
		slots:           make([]slot, cfg.MaxEndpoints),
		stop:            make(chan struct{}),
		dead:            make(chan struct{}),
		done:            make(chan struct{}),
	}
	go e.pump()
	return e
}

// Wheel returns the engine's timer wheel.
func (e *Engine) Wheel() *Wheel { return e.cfg.Wheel }

// Dead is closed when the pump has exited — the conn is gone, whether by
// Close or by an external kill — so every layer blocked on the engine
// can surface ClosedErr instead of wedging.
func (e *Engine) Dead() <-chan struct{} { return e.dead }

// Endpoint registers (or re-registers) id and returns its endpoint.
// Re-registering routes subsequent inbound packets to the new endpoint;
// the superseded one stays usable for Send but starves on Recv — the
// exact semantics SharedConn's attach views had.
func (e *Engine) Endpoint(id int) (*Endpoint, error) {
	if e.closed.Load() {
		return nil, e.cfg.ClosedErr
	}
	if id < 0 || id >= len(e.slots) {
		return nil, fmt.Errorf("engine: endpoint id %d out of range [0, %d)", id, len(e.slots))
	}
	s := &e.slots[id]
	ep := &Endpoint{
		eng:    e,
		id:     id,
		slot:   s,
		closed: make(chan struct{}),
	}
	s.ep.Store(ep)
	if !e.cfg.Raw {
		// Summed: engines sharing a registry — a mesh's twelve — report
		// their total for the id, not whichever registered last.
		s.gaugeOnce.Do(func() {
			s.dropGauge = e.reg.GaugeFuncSum(mEpPrefix+strconv.Itoa(id)+mEpSuffix,
				func() float64 { return float64(s.overflow.Load()) })
		})
	}
	return ep, nil
}

// Close stops the pump, closes the conn and unblocks every endpoint's
// Recv with ClosedErr. Idempotent; every call waits for the pump.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		e.closed.Store(true)
		close(e.stop)
		e.closeErr = e.conn.Close()
		// Out of the registry — often the process-wide one, which would
		// otherwise hold this engine's slots, and through their endpoints'
		// handlers the stations, for the life of the process. Going through
		// the Once waits out an Endpoint call registering right now and
		// stops a later one from registering at all.
		for i := range e.slots {
			s := &e.slots[i]
			s.gaugeOnce.Do(func() {})
			if s.dropGauge != nil {
				s.dropGauge()
			}
		}
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
			if e.cfg.IsFatal == nil || e.cfg.IsFatal(err) {
				return
			}
			// Transient read fault: indistinguishable from loss, so back
			// off briefly and keep serving instead of dying.
			e.ioRetries.Inc()
			if backoff == nil {
				backoff = e.cfg.Wheel.AfterFunc(e.cfg.TransientDelay, func() {
					select {
					case wake <- struct{}{}:
					default:
					}
				})
			} else {
				// The timer has always fired and wake been drained by the
				// time we get back here, so Reset is race-free.
				backoff.Reset(e.cfg.TransientDelay)
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
	s := &e.slots[id]
	ep := s.ep.Load()
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
	s.overflow.Add(1)
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
	slot *slot

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

// ID returns the endpoint's id.
func (ep *Endpoint) ID() int { return ep.id }

// Wheel returns the engine's shared timer wheel, for layers that need
// retry pacing without goroutines of their own.
func (ep *Endpoint) Wheel() *Wheel { return ep.eng.cfg.Wheel }

// Closed is closed when this endpoint is closed (detached).
func (ep *Endpoint) Closed() <-chan struct{} { return ep.closed }

// Dead is closed when the engine's pump has exited; see Engine.Dead.
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
		ep.in = make(chan []byte, ep.eng.cfg.Buffer)
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
		return ep.eng.cfg.ClosedErr
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

// SendBatch sends a burst of packets with at most one conn call when the
// underlying conn supports batching (BatchConn), and degrades to a Send
// loop when it does not. Framing shares one pooled buffer across the
// whole burst, so a k-deep window's flush costs one buffer round-trip
// instead of k. A nil or empty burst is a no-op.
func (ep *Endpoint) SendBatch(pkts [][]byte) error {
	switch len(pkts) {
	case 0:
		return nil
	case 1:
		return ep.Send(pkts[0])
	}
	if ep.isClosed() {
		return ep.eng.cfg.ClosedErr
	}
	if ep.wedged.Load() {
		return nil
	}
	bc, batched := ep.eng.conn.(BatchConn)
	if ep.eng.cfg.Raw {
		if batched {
			return bc.SendBatch(pkts)
		}
		for _, p := range pkts {
			if err := ep.eng.conn.Send(p); err != nil {
				return err
			}
		}
		return nil
	}
	// Framed mode: build every frame in one pooled buffer. Offsets are
	// recorded during the appends and the frames subsliced only after the
	// last append — append growth may reallocate, which would invalidate
	// subslices taken earlier.
	bufp := framePool.Get().(*[]byte)
	buf := (*bufp)[:0]
	// Per flush, not per packet: one offsets slice amortized over the whole
	// burst (TestHotPathAllocs holds the batch to the budget).
	offs := make([]int, 0, len(pkts)+1)
	for _, p := range pkts {
		offs = append(offs, len(buf))
		buf = binary.AppendUvarint(buf, uint64(ep.id))
		buf = append(buf, p...)
	}
	offs = append(offs, len(buf))
	var err error
	if batched {
		// Per-flush frame headers for the batched conn call, amortized over
		// the burst the same way.
		frames := make([][]byte, len(pkts))
		for i := range pkts {
			frames[i] = buf[offs[i]:offs[i+1]]
		}
		err = bc.SendBatch(frames)
	} else {
		for i := range pkts {
			if err = ep.eng.conn.Send(buf[offs[i]:offs[i+1]]); err != nil {
				break
			}
		}
	}
	*bufp = buf[:0]
	framePool.Put(bufp)
	return err
}

// Recv blocks for the next packet demuxed to this endpoint. It returns
// ClosedErr once the endpoint is closed, and drains remaining buffered
// packets before reporting a dead engine.
func (ep *Endpoint) Recv() ([]byte, error) {
	ep.mu.Lock()
	in := ep.mailboxLocked()
	ep.mu.Unlock()
	select {
	case p := <-in:
		return p, nil
	case <-ep.closed:
		return nil, ep.eng.cfg.ClosedErr
	case <-ep.eng.dead:
		select {
		case p := <-in:
			return p, nil
		default:
			return nil, ep.eng.cfg.ClosedErr
		}
	}
}

// Close detaches the endpoint: its Send/Recv fail with ClosedErr and
// inbound packets for its id are counted as demux drops. The engine and
// conn stay up for the other endpoints — detaching is what SharedConn
// views did; closing the whole conn is Engine.Close.
func (ep *Endpoint) Close() error {
	ep.closeOnce.Do(func() {
		close(ep.closed)
		// Only detach if still the registered endpoint: a superseded
		// view's Close must not tear down its successor.
		ep.slot.ep.CompareAndSwap(ep, nil)
	})
	return nil
}
