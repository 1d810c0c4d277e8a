package netlink

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ghm/internal/core"
	"ghm/internal/engine"
	"ghm/internal/metrics"
	"ghm/internal/trace"
)

// defaultRetryInterval paces the receiver's RETRY action. The protocol
// needs RETRY to fire "infinitely often"; a couple of milliseconds keeps
// idle links quiet while bounding recovery latency.
const defaultRetryInterval = 2 * time.Millisecond

// deliveryBuffer is how many delivered messages Recv callers may lag
// behind before the station sheds inbound packets (see handlePacket):
// with the buffer full, DATA is dropped as loss, no delivery commits, no
// OK flows, and the stop-and-wait transmitter stalls — natural flow
// control, paced by its retries.
const deliveryBuffer = 16

// ReceiverConfig parameterizes a Receiver session.
type ReceiverConfig struct {
	// Params configures the protocol receiver.
	Params core.Params
	// RetryInterval paces the RETRY action (default 2ms).
	RetryInterval time.Duration
	// RetryBackoffMax, when positive, enables adaptive retry pacing: while
	// no packet arrives (idle or blacked-out link) the retry interval
	// doubles per tick up to this cap, and snaps back to RetryInterval on
	// any arrival. Zero keeps the fixed-interval behaviour.
	RetryBackoffMax time.Duration
	// Tap, when non-nil, observes the station's externally visible
	// actions — receive_msg and crash^R — as trace events, in the order
	// the station commits them. It is invoked with the station lock held:
	// callbacks must be fast and must not call back into the station.
	Tap func(trace.Event)
	// Metrics receives the station's runtime counters (the rx.* family);
	// nil uses metrics.Default().
	Metrics *metrics.Registry

	// Deliver, when non-nil, replaces the Recv mailbox: every committed
	// delivery is handed to it synchronously on the engine pump, in
	// commit order. It must not block (a guaranteed-capacity channel
	// push is the intended shape — pair it with Accept). Recv must not
	// be used on a Deliver-mode receiver. This is how mux lanes feed the
	// resequencer without a merge goroutine per lane.
	Deliver func(msg []byte)
	// Accept, when non-nil, gates packet processing: the handler asks it
	// before running the protocol machine and sheds the packet as link
	// loss on false. The default (mailbox mode) accepts while the
	// delivery buffer has room.
	Accept func() bool
}

// Receiver runs a protocol receiver over a PacketConn and hands delivered
// messages to Recv in order, exactly once (up to the protocol's epsilon
// and station crashes).
//
// The station has no goroutines of its own: inbound packets arrive as
// engine-pump callbacks and the RETRY action rides the engine's shared
// timer wheel, so lane and session counts no longer multiply goroutines.
type Receiver struct {
	io  stationIO
	tap func(trace.Event)
	m   receiverMetrics

	mu     sync.Mutex // guards rx, last, closed and the retry pacing state
	rx     *core.Receiver
	last   core.RxStats // rx stats at the previous flush (delta baseline)
	closed bool

	out     chan []byte
	deliver func([]byte)
	accept  func() bool

	arrivals atomic.Uint64 // packets seen; read by retryTick for backoff

	// Retry pacing (guarded by mu; retryTick is the only writer after New).
	retry            *engine.Timer
	interval         time.Duration
	base, maxBackoff time.Duration
	lastSeen         uint64

	stop      chan struct{}
	closeOnce sync.Once
}

// NewReceiver builds the receiver, attaches it to conn's engine and
// schedules its retry timer on the shared wheel.
func NewReceiver(conn PacketConn, cfg ReceiverConfig) (*Receiver, error) {
	rx, err := core.NewReceiver(cfg.Params)
	if err != nil {
		return nil, fmt.Errorf("netlink: receiver: %w", err)
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = defaultRetryInterval
	}
	r := &Receiver{
		tap:        cfg.Tap,
		m:          newReceiverMetrics(cfg.Metrics),
		rx:         rx,
		out:        make(chan []byte, deliveryBuffer),
		deliver:    cfg.Deliver,
		accept:     cfg.Accept,
		interval:   cfg.RetryInterval,
		base:       cfg.RetryInterval,
		maxBackoff: cfg.RetryBackoffMax,
		stop:       make(chan struct{}),
	}
	if r.accept == nil {
		if r.deliver != nil {
			r.accept = func() bool { return true }
		} else {
			// Single producer (the pump) means the length check cannot
			// race into overflow: space observed here is still there at
			// hand-off time.
			r.accept = func() bool { return len(r.out) < cap(r.out) }
		}
	}
	r.m.retryIntervalMS.Set(float64(r.interval) / float64(time.Millisecond))
	r.io = stationEndpoint(conn, cfg.Metrics)
	r.io.ep.SetHandler(r.handlePacket)
	// Arm under mu: retryTick reads r.retry under the same lock, so the
	// timer cannot observe the field before this assignment even if it
	// fires immediately.
	r.mu.Lock()
	r.retry = r.io.ep.Wheel().AfterFunc(r.interval, r.retryTick)
	r.mu.Unlock()
	return r, nil
}

// emit reports one externally visible action; callers hold r.mu so taps
// observe actions in commit order.
func (r *Receiver) emit(k trace.Kind, msg string) {
	if r.tap != nil {
		r.tap(trace.Event{Kind: k, Msg: msg})
	}
}

// flushStats publishes the receiver's per-incarnation protocol counters
// into the registry as deltas, keeping the registry cumulative across
// crashes. Call with r.mu held, and always immediately before rx.Crash().
func (r *Receiver) flushStats() {
	st := r.rx.Stats()
	r.m.packetsSent.Add(int64(st.PacketsSent - r.last.PacketsSent))
	r.m.delivered.Add(int64(st.Delivered - r.last.Delivered))
	r.m.errorsCounted.Add(int64(st.ErrorsCounted - r.last.ErrorsCounted))
	r.m.challengeExts.Add(int64(st.Extensions - r.last.Extensions))
	r.m.replayRejections.Add(int64(st.Ignored - r.last.Ignored))
	r.last = st
}

// Recv blocks for the next delivered message.
func (r *Receiver) Recv(ctx context.Context) ([]byte, error) {
	select {
	case m := <-r.out:
		return m, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-r.stop:
		// Drain deliveries that raced with Close.
		select {
		case m := <-r.out:
			return m, nil
		default:
			return nil, ErrClosed
		}
	case <-r.io.ep.Dead():
		// The conn died under us; drain what already committed.
		select {
		case m := <-r.out:
			return m, nil
		default:
			return nil, ErrClosed
		}
	}
}

// Crash simulates crash^R: the station's memory is erased. Messages
// already delivered to the session buffer were already handed to the
// higher layer in the model's sense and remain readable.
func (r *Receiver) Crash() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushStats()
	r.rx.Crash()
	r.last = core.RxStats{}
	r.m.crashes.Inc()
	r.emit(trace.KindCrashR, "")
}

// Stats returns the receiver's protocol counters.
func (r *Receiver) Stats() core.RxStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rx.Stats()
}

// Close stops the retry timer and detaches the station from its engine
// (closing the conn when the station owns it — see stationEndpoint).
//
// Audit note (the symmetric check to the sender's abandoned-transfer
// fix): the receiver keeps no waiter, so Close cannot strand one. A
// delivery is committed — taped as receive_msg, counted — under r.mu
// before it enters the session buffer, and Recv keeps draining buffered
// deliveries after Close, so closing cannot un-deliver or double-deliver.
// The one loss Close can cause is a committed delivery that no Recv call
// ever drains; those are counted as rx.deliveries_dropped.
func (r *Receiver) Close() error {
	r.closeOnce.Do(func() {
		r.mu.Lock()
		r.closed = true
		r.mu.Unlock()
		r.retry.Stop()
		close(r.stop)
		r.io.close()
	})
	return nil
}

// handlePacket is the engine-pump callback: one protocol round. It never
// blocks — when the layer above has no room the packet is shed as link
// loss before the machine runs, so no delivery commits and no OK flows;
// the stop-and-wait transmitter stalls and its retries pace recovery.
// (The pre-engine readLoop blocked on the session buffer instead, which
// a shared pump cannot afford: one slow receiver would stall every
// endpoint on the conn.)
func (r *Receiver) handlePacket(p []byte) {
	r.arrivals.Add(1)
	if !r.accept() {
		r.m.ingressShed.Inc()
		return
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	buf := getPacketBuf()
	reply, msg, delivered := r.rx.AppendReceivePacket(*buf, p)
	r.m.packetsReceived.Inc()
	if delivered {
		// The one copy on the delivery path: msg aliases p, which belongs
		// to the conn, and the copy is what Recv hands to its caller.
		msg = append([]byte(nil), msg...)
		// The delivery is committed here, before the reply leaves: a tap
		// always observes receive_msg(m) before any OK it can cause.
		if r.tap != nil {
			r.emit(trace.KindReceiveMsg, string(msg))
		}
	}
	r.flushStats()
	r.mu.Unlock()

	// A conn closed mid-reply still gets what committed handed over.
	r.io.transmit(buf, reply)
	if delivered {
		r.handoff(msg)
	}
}

// handoff moves a committed delivery to the layer above. Accept reserved
// the space before the machine ran (and the protocol delivers at most
// one message per packet), so the push cannot block; the default
// branch only fires if that invariant is ever broken, and keeps the
// books balanced (delivered = drained + buffered + dropped) if it does.
func (r *Receiver) handoff(msg []byte) {
	if r.deliver != nil {
		r.deliver(msg)
		return
	}
	select {
	case r.out <- msg:
	default:
		r.m.deliveriesDropped.Inc()
	}
}

// retryTick fires the RETRY action on the engine's shared timer wheel
// and re-arms itself. With backoff disabled the interval is fixed; with
// backoff enabled the interval doubles while the link is silent (idle or
// blacked out) up to maxBackoff, and snaps back to base on any packet
// arrival — retry traffic fades on dead links without giving up the
// "infinitely often" the protocol needs.
func (r *Receiver) retryTick() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	if n := r.arrivals.Load(); n != r.lastSeen {
		r.lastSeen = n
		r.interval = r.base
	} else if r.maxBackoff > r.base {
		r.interval *= 2
		if r.interval > r.maxBackoff {
			r.interval = r.maxBackoff
		}
	}
	r.m.retries.Inc()
	r.m.retryIntervalMS.Set(float64(r.interval) / float64(time.Millisecond))
	buf := getPacketBuf()
	pkt := r.rx.AppendRetry(*buf)
	r.flushStats()
	r.retry.Reset(r.interval)
	r.mu.Unlock()
	r.io.transmit(buf, pkt)
}
