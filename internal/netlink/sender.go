package netlink

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ghm/internal/core"
	"ghm/internal/metrics"
	"ghm/internal/trace"
)

// SenderConfig parameterizes a Sender session.
type SenderConfig struct {
	// Params configures the protocol transmitter.
	Params core.Params
	// Tap, when non-nil, observes the station's externally visible
	// actions — send_msg, OK and crash^T — as trace events, in the order
	// the station commits them. It is invoked with the station lock held:
	// callbacks must be fast and must not call back into the station.
	// Feeding both stations' taps into one verify.Live turns any run into
	// a live check of the paper's Section 2.6 conditions.
	Tap func(trace.Event)
	// Metrics receives the station's runtime counters (the tx.* family);
	// nil uses metrics.Default().
	Metrics *metrics.Registry
}

// Sender runs a protocol transmitter over a PacketConn and offers blocking
// exactly-once sends: Send returns nil only after the protocol's OK, i.e.
// after the message was delivered (with probability at least 1-epsilon)
// to the receiving station's higher layer.
//
// The station has no goroutine of its own: inbound packets arrive as
// engine-pump callbacks (see stationEndpoint), so a thousand senders on
// one conn still cost one read pump.
type Sender struct {
	io  stationIO
	tap func(trace.Event)
	m   senderMetrics

	mu     sync.Mutex // guards tx, waiter and last
	tx     *core.Transmitter
	waiter chan error   // non-nil while a Send awaits its OK
	last   core.TxStats // tx stats at the previous flush (delta baseline)

	sendMu sync.Mutex // serializes Send callers (Axiom 1)

	stop      chan struct{}
	closeOnce sync.Once
}

// NewSender builds the transmitter and attaches it to conn's engine.
func NewSender(conn PacketConn, cfg SenderConfig) (*Sender, error) {
	tx, err := core.NewTransmitter(cfg.Params)
	if err != nil {
		return nil, fmt.Errorf("netlink: sender: %w", err)
	}
	s := &Sender{
		tap:  cfg.Tap,
		m:    newSenderMetrics(cfg.Metrics),
		tx:   tx,
		stop: make(chan struct{}),
	}
	s.io = stationEndpoint(conn, cfg.Metrics)
	s.io.ep.SetHandler(s.handlePacket)
	return s, nil
}

// emit reports one externally visible action; callers hold s.mu so taps
// observe actions in commit order.
func (s *Sender) emit(k trace.Kind, msg string) {
	if s.tap != nil {
		s.tap(trace.Event{Kind: k, Msg: msg})
	}
}

// flushStats publishes the transmitter's per-incarnation protocol
// counters into the registry as deltas, keeping the registry cumulative
// across crashes. Call with s.mu held, and always immediately before
// tx.Crash(), which zeroes the counters the deltas are computed from.
func (s *Sender) flushStats() {
	st := s.tx.Stats()
	s.m.packetsSent.Add(int64(st.PacketsSent - s.last.PacketsSent))
	s.m.oks.Add(int64(st.OKs - s.last.OKs))
	s.m.errorsCounted.Add(int64(st.ErrorsCounted - s.last.ErrorsCounted))
	s.m.tagExtensions.Add(int64(st.Extensions - s.last.Extensions))
	s.m.replayRejections.Add(int64(st.Ignored - s.last.Ignored))
	s.last = st
}

// crashLocked performs crash^T with the bookkeeping every crash needs:
// stats flushed first (the wipe zeroes them), the event taped, the crash
// counted. Call with s.mu held.
func (s *Sender) crashLocked() {
	s.flushStats()
	s.tx.Crash()
	s.last = core.TxStats{}
	s.m.crashes.Inc()
	s.emit(trace.KindCrashT, "")
}

// settle resolves an interrupted Send. If the transfer is still pending,
// the station crashes itself — the model offers no "cancel" action, so an
// abandoned transfer is accounted as crash^T, and wiping the transmitter
// guarantees a stale OK arriving later cannot match it — and settle
// reports nothing to drain. If the resolution raced ahead and already
// cleared the waiter, its buffered result is guaranteed to arrive
// promptly (the resolver sends before touching the conn — see
// handlePacket); settle drains it and hands it back, so a transfer
// whose OK beat the cancellation is reported delivered, never failed.
func (s *Sender) settle(w chan error) (error, bool) {
	s.mu.Lock()
	if s.waiter == w {
		s.waiter = nil
		s.m.abandoned.Inc()
		s.crashLocked()
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Unlock()
	return <-w, true
}

// finish translates a waiter result into Send's return, observing the
// confirm latency for delivered transfers — including a late OK drained
// by settle after losing the race to a cancellation.
func (s *Sender) finish(start time.Time, err error) error {
	if err == nil {
		// Elapsed on the station's own clock: ObserveSince would re-read
		// the wall clock, which is wrong under virtual time.
		s.m.okLatencyMS.Observe(float64(s.io.clock().Now().Sub(start)) / float64(time.Millisecond))
		return nil
	}
	return err
}

// Send transfers msg and blocks until the protocol confirms delivery (OK),
// the context ends, or the sender is closed or crashed. On context
// cancellation or Close the in-flight transfer cannot be plainly
// abandoned — the model offers no "cancel" action — so the station
// crashes itself (memory erased), exactly as a real host would be
// power-cycled.
func (s *Sender) Send(ctx context.Context, msg []byte) error {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()

	buf := getPacketBuf()
	s.mu.Lock()
	pkt, err := s.tx.AppendSendMsg(*buf, msg)
	if err != nil {
		s.mu.Unlock()
		s.io.transmit(buf, pkt) // nothing was appended: this only returns buf
		return fmt.Errorf("netlink: send: %w", err)
	}
	s.m.sendMsgs.Inc()
	if s.tap != nil {
		s.emit(trace.KindSendMsg, string(msg))
	}
	s.flushStats()
	w := make(chan error, 1)
	s.waiter = w
	s.mu.Unlock()

	start := s.io.clock().Now()
	s.io.transmit(buf, pkt)

	select {
	case err := <-w:
		return s.finish(start, err)
	case <-ctx.Done():
		if res, ok := s.settle(w); ok {
			return s.finish(start, res)
		}
		return ctx.Err()
	case <-s.stop:
		if res, ok := s.settle(w); ok {
			return s.finish(start, res)
		}
		return ErrClosed
	case <-s.io.ep.Closed():
		// The endpoint was detached under us.
		if res, ok := s.settle(w); ok {
			return s.finish(start, res)
		}
		return ErrClosed
	case <-s.io.ep.Dead():
		// The engine pump died — the conn is gone. The pre-engine loop
		// would have left this Send parked until its context expired;
		// surfacing ErrClosed is the strictly more live behaviour.
		if res, ok := s.settle(w); ok {
			return s.finish(start, res)
		}
		return ErrClosed
	}
}

// Crash simulates crash^T: the station's memory is erased and any pending
// Send fails with ErrCrashed.
func (s *Sender) Crash() {
	s.mu.Lock()
	s.crashLocked()
	w := s.waiter
	s.waiter = nil
	s.mu.Unlock()
	if w != nil {
		// Whoever clears s.waiter under the lock owns the buffered channel
		// exclusively, so this send cannot block and cannot double-resolve
		// against a concurrent OK from the packet handler (see the
		// interleaving tests in waiter_race_test.go).
		s.m.abandoned.Inc()
		w <- ErrCrashed
	}
}

// Stats returns the transmitter's protocol counters.
func (s *Sender) Stats() core.TxStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tx.Stats()
}

// Close detaches the station from its engine (closing the conn when the
// station owns it — see stationEndpoint). A pending Send fails with
// ErrClosed and its transfer is abandoned via the same crash^T
// bookkeeping as a context cancellation, so no waiter survives Close to
// be matched by a stale OK.
func (s *Sender) Close() error {
	s.closeOnce.Do(func() {
		close(s.stop)
		s.io.close()
	})
	return nil
}

// handlePacket is the engine-pump callback: one protocol round. It must
// not block — the waiter channel is buffered and owned exclusively by
// whoever clears it under the lock, so the resolve cannot stall the
// pump.
func (s *Sender) handlePacket(p []byte) {
	buf := getPacketBuf()
	s.mu.Lock()
	pkt, ok := s.tx.AppendReceivePacket(*buf, p)
	s.m.packetsReceived.Inc()
	var w chan error
	if ok {
		s.emit(trace.KindOK, "")
		w = s.waiter
		s.waiter = nil
	}
	s.flushStats()
	s.mu.Unlock()

	// Resolve before the conn write: settle's drain of a cleared waiter is
	// then bounded by lock handoff alone, never by how long a PacketConn
	// implementation blocks in Send. The replies tolerate the reordering —
	// they cross an unreliable link anyway.
	if w != nil {
		//lint:allow nonblockinghandler the waiter channel is buffered (cap 1) and exclusively owned: this send cannot block
		w <- nil
	}
	s.io.transmit(buf, pkt)
}
