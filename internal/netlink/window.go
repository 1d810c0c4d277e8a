package netlink

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ghm/internal/core"
	"ghm/internal/engine"
	"ghm/internal/metrics"
	"ghm/internal/trace"
)

// This file runs the k-deep sliding-window state machines of
// internal/core over a PacketConn: up to k Sends in flight per station
// (the stop-and-wait protocol admits one), released to the receiving
// application in admission order.
//
// Three pieces of runtime memory sit above the protocol machines, and —
// like the mux resequencer — survive protocol crashes (a crash erases a
// station's *protocol* state; the process hosting it keeps running):
//
//   - an admission sequence number, uvarint-framed into each payload
//     together with the sender incarnation's epoch, by which the receiver
//     releases deliveries in order (and detects a rebuilt sender whose
//     seqs restart — see WindowedSenderConfig.Epoch);
//   - the receiver's release cursor + pending set, which double as the
//     resubmission dedup: a crash^T wipes the whole window at once
//     (shared crash model), the wiped payloads are resubmitted by the
//     layer above, and an attempt that had already delivered before the
//     wipe is dropped by its reused seq instead of delivering twice;
//   - the sender's wiped map (payload bytes -> multiset of seqs), which
//     makes that reuse happen: a resubmitted payload identical to a wiped
//     one takes one of the wiped attempts' seqs. A multiset, not a single
//     seq: two byte-identical payloads can be in flight on different
//     slots when a crash lands, and each wiped attempt's seq must survive
//     to be reclaimed or the release cursor stalls on the lost one.
//
// The stream contract this buys: every payload admitted before a wipe
// must be resubmitted (byte-identical) for the stream to keep releasing
// — an abandoned hole stalls release at its seq forever, exactly as an
// abandoned mux lane transfer stalls the mux resequencer. ghm.Session
// provides that resubmission automatically.

// frameSeq prefixes msg with the sender incarnation's epoch and the
// payload's admission seq.
func frameSeq(epoch, seq uint64, msg []byte) []byte {
	out := binary.AppendUvarint(make([]byte, 0, len(msg)+2*binary.MaxVarintLen64), epoch)
	out = binary.AppendUvarint(out, seq)
	return append(out, msg...)
}

// unframeSeq splits an epoch+seq-framed payload.
func unframeSeq(p []byte) (epoch, seq uint64, msg []byte, ok bool) {
	epoch, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, 0, nil, false
	}
	seq, m := binary.Uvarint(p[n:])
	if m <= 0 {
		return 0, 0, nil, false
	}
	return epoch, seq, p[n+m:], true
}

// WindowedSenderConfig parameterizes a WindowedSender.
type WindowedSenderConfig struct {
	// Window is the depth k: how many Sends may be in flight at once
	// (default 1, max core.MaxWindow).
	Window int
	// Params configures each slot's protocol transmitter.
	Params core.Params
	// Tap observes the station's externally visible actions; windowed
	// events carry the slot index. Same contract as SenderConfig.Tap.
	Tap func(trace.Event)
	// Metrics receives the tx.* family plus the tx.window_* counters.
	Metrics *metrics.Registry
	// Epoch distinguishes successive sender incarnations talking to one
	// long-lived receiver: the receiver adopts the highest epoch it sees
	// and resets its release cursor for it, so a rebuilt sender (whose
	// admission seqs restart at zero) is not mistaken for a replay of the
	// old one. Supervised sessions pass their incarnation number; a
	// single-incarnation pair leaves it 0. Raising the epoch abandons the
	// previous incarnation's in-order dedup, so delivery across a rebuild
	// is at-least-once — the session's documented contract.
	Epoch uint64
}

// WindowedSender runs a k-deep window of protocol transmitters over a
// PacketConn. Up to k Send calls proceed concurrently, each owning one
// slot; Send returns nil only after that slot's protocol OK. One station,
// one tap stream, one crash model: cancelling any in-flight Send (or
// Crash/Close) wipes the whole window, because the model's only
// abandonment action is crash^T and a crash erases the entire station.
type WindowedSender struct {
	io    stationIO
	tap   func(trace.Event)
	m     windowSenderMetrics
	k     int
	epoch uint64

	mu      sync.Mutex // guards everything below
	wt      *core.WindowedTransmitter
	waiters []chan error // per slot; non-nil while a Send awaits its OK
	slotMsg [][]byte     // per slot: raw payload in flight (nil when idle)
	slotSeq []uint64     // per slot: admission seq of the in-flight payload
	nextSeq uint64
	wiped   map[string][]uint64 // payload bytes -> wiped seqs, for resubmission reuse
	last    core.TxStats        // stats at the previous flush (delta baseline)

	free chan int // slot tokens; admission waits here, bounding in-flight at k

	stop      chan struct{}
	closeOnce sync.Once
}

// NewWindowedSender builds the window and attaches it to conn's engine.
func NewWindowedSender(conn PacketConn, cfg WindowedSenderConfig) (*WindowedSender, error) {
	if cfg.Window == 0 {
		cfg.Window = 1
	}
	wt, err := core.NewWindowedTransmitter(cfg.Window, cfg.Params)
	if err != nil {
		return nil, fmt.Errorf("netlink: windowed sender: %w", err)
	}
	s := &WindowedSender{
		tap:     cfg.Tap,
		m:       newWindowSenderMetrics(cfg.Metrics),
		k:       cfg.Window,
		epoch:   cfg.Epoch,
		wt:      wt,
		waiters: make([]chan error, cfg.Window),
		slotMsg: make([][]byte, cfg.Window),
		slotSeq: make([]uint64, cfg.Window),
		wiped:   make(map[string][]uint64),
		free:    make(chan int, cfg.Window),
		stop:    make(chan struct{}),
	}
	for i := 0; i < cfg.Window; i++ {
		s.free <- i
	}
	s.io = stationEndpoint(conn, cfg.Metrics)
	s.io.ep.SetHandler(s.handlePacket)
	return s, nil
}

// Window returns the depth k.
func (s *WindowedSender) Window() int { return s.k }

// emit reports one externally visible action; callers hold s.mu so taps
// observe actions in commit order.
func (s *WindowedSender) emit(e trace.Event) {
	if s.tap != nil {
		s.tap(e)
	}
}

// flushStats publishes the window's per-incarnation protocol counters as
// deltas; call with s.mu held and always immediately before wt.Crash().
func (s *WindowedSender) flushStats() {
	st := s.wt.Stats()
	s.m.packetsSent.Add(int64(st.PacketsSent - s.last.PacketsSent))
	s.m.oks.Add(int64(st.OKs - s.last.OKs))
	s.m.errorsCounted.Add(int64(st.ErrorsCounted - s.last.ErrorsCounted))
	s.m.tagExtensions.Add(int64(st.Extensions - s.last.Extensions))
	s.m.replayRejections.Add(int64(st.Ignored - s.last.Ignored))
	s.last = st
}

// crashLocked performs the window's shared crash^T: stats flushed, every
// slot's memory wiped at once, every in-flight payload recorded for seq
// reuse, every still-parked waiter resolved with ErrCrashed. Call with
// s.mu held. The waiter sends cannot block: each channel is buffered
// (cap 1) and exclusively owned by whoever cleared it here.
func (s *WindowedSender) crashLocked() {
	s.flushStats()
	for i := range s.slotMsg {
		if s.slotMsg[i] != nil {
			// Append, never assign: byte-identical payloads on different
			// slots each contribute their own seq to the multiset.
			key := string(s.slotMsg[i])
			s.wiped[key] = append(s.wiped[key], s.slotSeq[i])
			s.slotMsg[i] = nil
			s.m.windowWiped.Inc()
		}
		if w := s.waiters[i]; w != nil {
			s.waiters[i] = nil
			s.m.abandoned.Inc()
			w <- ErrCrashed
		}
	}
	s.wt.Crash()
	s.last = core.TxStats{}
	s.m.crashes.Inc()
	s.m.windowInflight.Set(0)
	s.emit(trace.Event{Kind: trace.KindCrashT})
}

// settle resolves an interrupted Send for slot. If the transfer is still
// pending the station crashes itself — wiping the whole window, shared
// crash model — and settle reports nothing to drain. If the OK (or a
// concurrent crash) raced ahead and already cleared the waiter, the
// buffered result is guaranteed to arrive promptly; settle drains it and
// hands it back so a delivered transfer is never reported failed.
func (s *WindowedSender) settle(slot int, w chan error) (error, bool) {
	s.mu.Lock()
	if s.waiters[slot] == w {
		s.waiters[slot] = nil
		s.m.abandoned.Inc()
		s.crashLocked()
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Unlock()
	// Whoever cleared the waiter owns the buffered channel and sends the
	// result before touching the conn (see handlePacket), so this receive
	// is bounded by lock handoff, not by conn-write latency.
	return <-w, true
}

// finish translates a waiter result into Send's return, observing the
// confirm latency for delivered transfers — including late OKs drained
// by settle after a lost cancellation race.
func (s *WindowedSender) finish(start time.Time, err error) error {
	if err == nil {
		// Elapsed on the station's own clock: ObserveSince would re-read
		// the wall clock, which is wrong under virtual time.
		s.m.okLatencyMS.Observe(float64(s.io.clock().Now().Sub(start)) / float64(time.Millisecond))
		return nil
	}
	return err
}

// Send transfers msg and blocks until the protocol confirms delivery
// (OK), the context ends, or the sender is closed or crashed. Up to k
// calls proceed concurrently; each waits for a free window slot first.
// Cancelling one in-flight Send crashes the whole station (the model
// offers no narrower abandonment), so concurrent Sends fail with
// ErrCrashed and their payloads must be resubmitted byte-identical to
// keep the receiver's in-order release moving (ghm.Session does this
// automatically).
func (s *WindowedSender) Send(ctx context.Context, msg []byte) error {
	var slot int
	select {
	case slot = <-s.free:
	case <-ctx.Done():
		return ctx.Err()
	case <-s.stop:
		return ErrClosed
	case <-s.io.ep.Closed():
		return ErrClosed
	case <-s.io.ep.Dead():
		return ErrClosed
	}
	// The token returns unconditionally: cap k and single ownership make
	// this send non-blocking.
	defer func() { s.free <- slot }()

	s.mu.Lock()
	var seq uint64
	var reused bool
	if seqs := s.wiped[string(msg)]; len(seqs) > 0 {
		// Pop the lowest wiped seq first: identical payloads are
		// interchangeable for correctness, but lowest-first lets a caller
		// resubmitting sequentially in admission order (the outbox's
		// pattern) see each release before issuing the next attempt,
		// instead of parking the early ones behind a seq still unsent.
		mi := 0
		for j, q := range seqs {
			if q < seqs[mi] {
				mi = j
			}
		}
		seq, reused = seqs[mi], true
		if len(seqs) == 1 {
			delete(s.wiped, string(msg))
		} else {
			s.wiped[string(msg)] = append(seqs[:mi], seqs[mi+1:]...)
		}
	} else {
		seq = s.nextSeq
		s.nextSeq++
	}
	out, err := s.wt.SendMsg(slot, frameSeq(s.epoch, seq, msg))
	if err != nil {
		// Unreachable while the token invariant holds (a held token means a
		// free slot); roll the seq back so a stray failure cannot poison the
		// stream with a hole.
		if reused {
			s.wiped[string(msg)] = append(s.wiped[string(msg)], seq)
		} else {
			s.nextSeq--
		}
		s.mu.Unlock()
		return fmt.Errorf("netlink: windowed send: %w", err)
	}
	s.m.sendMsgs.Inc()
	s.m.windowAdmitted.Inc()
	if s.tap != nil {
		s.emit(trace.Event{Kind: trace.KindSendMsg, Msg: string(msg), Slot: slot})
	}
	s.slotMsg[slot] = append([]byte(nil), msg...)
	s.slotSeq[slot] = seq
	w := make(chan error, 1)
	s.waiters[slot] = w
	s.m.windowInflight.Set(float64(s.wt.InFlight()))
	s.flushStats()
	s.mu.Unlock()

	start := s.io.clock().Now()
	s.transmit(out.Packets)

	select {
	case err := <-w:
		return s.finish(start, err)
	case <-ctx.Done():
		if res, ok := s.settle(slot, w); ok {
			return s.finish(start, res)
		}
		return ctx.Err()
	case <-s.stop:
		if res, ok := s.settle(slot, w); ok {
			return s.finish(start, res)
		}
		return ErrClosed
	case <-s.io.ep.Closed():
		if res, ok := s.settle(slot, w); ok {
			return s.finish(start, res)
		}
		return ErrClosed
	case <-s.io.ep.Dead():
		if res, ok := s.settle(slot, w); ok {
			return s.finish(start, res)
		}
		return ErrClosed
	}
}

// Crash simulates crash^T on the whole station: every slot's memory is
// erased at once and every pending Send fails with ErrCrashed.
func (s *WindowedSender) Crash() {
	s.mu.Lock()
	s.crashLocked()
	s.mu.Unlock()
}

// Stats returns the window's aggregated protocol counters.
func (s *WindowedSender) Stats() core.TxStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wt.Stats()
}

// Close detaches the station from its engine. Pending Sends fail with
// ErrClosed or ErrCrashed (the first to settle crashes the window; the
// rest observe that crash) and no waiter survives to be matched by a
// stale OK.
func (s *WindowedSender) Close() error {
	s.closeOnce.Do(func() {
		close(s.stop)
		s.io.close()
	})
	return nil
}

// handlePacket is the engine-pump callback: one protocol round for one
// slot. Replies leave in a single batched flush; waiter resolutions are
// buffered sends that cannot block the pump.
func (s *WindowedSender) handlePacket(p []byte) {
	s.mu.Lock()
	out := s.wt.ReceivePacket(p)
	s.m.packetsReceived.Inc()
	var resolved []chan error
	for _, slot := range out.OKs {
		s.emit(trace.Event{Kind: trace.KindOK, Slot: slot})
		s.slotMsg[slot] = nil
		if w := s.waiters[slot]; w != nil {
			s.waiters[slot] = nil
			resolved = append(resolved, w)
		}
	}
	if len(out.OKs) > 0 {
		s.m.windowInflight.Set(float64(s.wt.InFlight()))
	}
	s.flushStats()
	s.mu.Unlock()

	// Resolve before the conn write: settle's drain of a cleared waiter is
	// then bounded by lock handoff alone, never by how long a PacketConn
	// implementation blocks in Send. The replies tolerate the reordering —
	// they cross an unreliable link anyway.
	for _, w := range resolved {
		//lint:allow nonblockinghandler the waiter channel is buffered (cap 1) and exclusively owned: this send cannot block
		w <- nil
	}
	s.transmit(out.Packets)
}

// transmit flushes protocol packets in one batched conn call, treating
// transient errors as the loss the protocol tolerates.
//
//ghm:hotpath
func (s *WindowedSender) transmit(pkts [][]byte) {
	if len(pkts) == 0 {
		return
	}
	sendBatchTolerant(s.io.ep, pkts)
}

// WindowedReceiverConfig parameterizes a WindowedReceiver.
type WindowedReceiverConfig struct {
	// Window is the depth k (default 1, max core.MaxWindow). It should
	// match the sender's: a narrower receiver ignores the extra slots'
	// traffic and stalls them.
	Window int
	// Params configures each slot's protocol receiver.
	Params core.Params
	// RetryInterval paces the RETRY action across the whole window: one
	// wheel firing emits every slot's CTL in one batched flush (default
	// 2ms). RetryBackoffMax enables adaptive pacing as on Receiver.
	RetryInterval   time.Duration
	RetryBackoffMax time.Duration
	// Tap observes the station's actions; windowed events carry the slot.
	Tap func(trace.Event)
	// Metrics receives the rx.* family plus the rx.window_* counters.
	Metrics *metrics.Registry

	// Deliver/Accept: push mode, as on ReceiverConfig. Deliver receives
	// in-order released payloads (seq already stripped), possibly several
	// per accepted packet (up to WindowReleaseBound) when a release run
	// drains parked successors. Accept narrows the receiver's internal
	// capacity gate; it never widens it.
	Deliver func(msg []byte)
	Accept  func() bool
}

// WindowReleaseBound returns the largest in-order release burst one
// accepted packet can produce on a window-k receiver: the gap-filling
// delivery plus every consecutively parked successor the internal
// accept gate admits. A layer that pushes releases into its own bounded
// queue (see internal/mux) must keep that much room free per accepted
// packet.
func WindowReleaseBound(window int) int { return window * deliveryBuffer }

// WindowedReceiver runs a k-deep window of protocol receivers and hands
// released messages to Recv in the sender's admission order, exactly
// once (up to the protocol's epsilon): out-of-order slot completions are
// parked until the gap fills, and duplicates from crash-resubmission are
// dropped by their reused seq.
type WindowedReceiver struct {
	io  stationIO
	tap func(trace.Event)
	m   windowReceiverMetrics
	k   int

	mu      sync.Mutex // guards wr, last, closed, retry pacing, release state
	wr      *core.WindowedReceiver
	last    core.RxStats
	closed  bool
	epoch   uint64            // highest sender incarnation seen
	nextSeq uint64            // release cursor: next seq to hand over
	pending map[uint64][]byte // delivered, awaiting earlier seqs

	out     chan []byte
	deliver func([]byte)
	accept  func() bool

	arrivals atomic.Uint64
	parked   atomic.Int64 // len(pending) mirror, readable without mu by the accept gate

	retry            *engine.Timer
	interval         time.Duration
	base, maxBackoff time.Duration
	lastSeen         uint64

	stop      chan struct{}
	closeOnce sync.Once
}

// NewWindowedReceiver builds the window, attaches it to conn's engine
// and schedules the shared retry timer on the wheel.
func NewWindowedReceiver(conn PacketConn, cfg WindowedReceiverConfig) (*WindowedReceiver, error) {
	if cfg.Window == 0 {
		cfg.Window = 1
	}
	wr, err := core.NewWindowedReceiver(cfg.Window, cfg.Params)
	if err != nil {
		return nil, fmt.Errorf("netlink: windowed receiver: %w", err)
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = defaultRetryInterval
	}
	r := &WindowedReceiver{
		tap:        cfg.Tap,
		m:          newWindowReceiverMetrics(cfg.Metrics),
		k:          cfg.Window,
		wr:         wr,
		pending:    make(map[uint64][]byte),
		out:        make(chan []byte, cfg.Window*deliveryBuffer),
		deliver:    cfg.Deliver,
		accept:     cfg.Accept,
		interval:   cfg.RetryInterval,
		base:       cfg.RetryInterval,
		maxBackoff: cfg.RetryBackoffMax,
		stop:       make(chan struct{}),
	}
	// One accepted packet commits at most one protocol delivery, which
	// grows buffered-plus-parked by at most one; keeping that sum below
	// the buffer capacity guarantees a release burst (1 + drained
	// pending) always fits without blocking the pump. The gate runs on
	// the pump before r.mu is taken, while Close (another goroutine) may
	// be resetting the pending map under r.mu — so it reads the atomic
	// parked mirror, never the map. A user Accept narrows this gate,
	// never replaces it — the parked-set bound is what keeps release
	// bursts under WindowReleaseBound for the layer above.
	base := func() bool { return len(r.out)+int(r.parked.Load()) < cap(r.out) }
	if user := cfg.Accept; user != nil {
		r.accept = func() bool { return base() && user() }
	} else {
		r.accept = base
	}
	r.m.retryIntervalMS.Set(float64(r.interval) / float64(time.Millisecond))
	r.io = stationEndpoint(conn, cfg.Metrics)
	r.io.ep.SetHandler(r.handlePacket)
	r.mu.Lock()
	r.retry = r.io.ep.Wheel().AfterFunc(r.interval, r.retryTick)
	r.mu.Unlock()
	return r, nil
}

// Window returns the depth k.
func (r *WindowedReceiver) Window() int { return r.k }

func (r *WindowedReceiver) emit(e trace.Event) {
	if r.tap != nil {
		r.tap(e)
	}
}

// flushStats publishes per-incarnation protocol counters as deltas; call
// with r.mu held and always immediately before wr.Crash().
func (r *WindowedReceiver) flushStats() {
	st := r.wr.Stats()
	r.m.packetsSent.Add(int64(st.PacketsSent - r.last.PacketsSent))
	r.m.delivered.Add(int64(st.Delivered - r.last.Delivered))
	r.m.errorsCounted.Add(int64(st.ErrorsCounted - r.last.ErrorsCounted))
	r.m.challengeExts.Add(int64(st.Extensions - r.last.Extensions))
	r.m.replayRejections.Add(int64(st.Ignored - r.last.Ignored))
	r.last = st
}

// Recv blocks for the next in-order released message.
func (r *WindowedReceiver) Recv(ctx context.Context) ([]byte, error) {
	select {
	case m := <-r.out:
		return m, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-r.stop:
		select {
		case m := <-r.out:
			return m, nil
		default:
			return nil, ErrClosed
		}
	case <-r.io.ep.Dead():
		select {
		case m := <-r.out:
			return m, nil
		default:
			return nil, ErrClosed
		}
	}
}

// Crash simulates crash^R with the shared crash model: every slot's
// protocol memory is erased at once. The release cursor and parked
// deliveries are runtime memory (the hosting process survives a protocol
// crash) and persist, exactly as the mux resequencer's do — that is what
// drops the redeliveries the crash licenses.
func (r *WindowedReceiver) Crash() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushStats()
	r.wr.Crash()
	r.last = core.RxStats{}
	r.m.crashes.Inc()
	r.emit(trace.Event{Kind: trace.KindCrashR})
}

// Stats returns the window's aggregated protocol counters.
func (r *WindowedReceiver) Stats() core.RxStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wr.Stats()
}

// Close stops the retry timer and detaches the station. Already-released
// messages stay drainable via Recv; parked out-of-order deliveries are
// counted as dropped (they were protocol-committed but can no longer be
// released in order).
func (r *WindowedReceiver) Close() error {
	r.closeOnce.Do(func() {
		r.mu.Lock()
		r.closed = true
		parked := len(r.pending)
		r.pending = make(map[uint64][]byte)
		r.parked.Store(0)
		r.mu.Unlock()
		if parked > 0 {
			r.m.deliveriesDropped.Add(int64(parked))
			r.m.windowPending.Set(0)
		}
		r.retry.Stop()
		close(r.stop)
		r.io.close()
	})
	return nil
}

// handlePacket is the engine-pump callback: one protocol round for one
// slot, replies flushed in one batched conn call. Deliveries are
// committed — taped, counted — under r.mu before the replies leave, then
// fed through the in-order release.
func (r *WindowedReceiver) handlePacket(p []byte) {
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
	out := r.wr.ReceivePacket(p)
	r.m.packetsReceived.Inc()
	var release [][]byte
	for _, d := range out.Delivered {
		epoch, seq, msg, ok := unframeSeq(d.Msg)
		if !ok {
			// Only a non-windowed peer produces an unframed payload; it
			// cannot be sequenced, so it is dropped — and counted, never
			// silently.
			r.m.deliveriesDropped.Inc()
			continue
		}
		// The protocol delivery commits here, dup or not: a resubmitted
		// attempt is a distinct send_msg and verify licenses its delivery.
		// The seq layer above decides what the application sees.
		if r.tap != nil {
			r.emit(trace.Event{Kind: trace.KindReceiveMsg, Msg: string(msg), Slot: d.Slot})
		}
		switch {
		case epoch < r.epoch:
			// A straggler from a dead sender incarnation: its seq space
			// was abandoned when the higher epoch arrived.
			r.m.windowDupDropped.Inc()
			continue
		case epoch > r.epoch:
			// A rebuilt sender. Its admission seqs restart at zero; adopt
			// the new incarnation's seq space. Parked deliveries of the
			// old one can never release in order now — count them out.
			r.epoch = epoch
			r.nextSeq = 0
			if n := len(r.pending); n > 0 {
				r.m.deliveriesDropped.Add(int64(n))
				r.pending = make(map[uint64][]byte)
				r.parked.Store(0)
			}
		}
		release = append(release, r.commitSeq(seq, msg)...)
	}
	r.flushStats()
	r.m.windowPending.Set(float64(len(r.pending)))
	r.mu.Unlock()

	sendBatchTolerant(r.io.ep, out.Packets)
	r.handoff(release)
}

// commitSeq runs one delivery through the in-order release: duplicates
// (below the cursor, or already parked) are dropped, the cursor's seq
// releases itself plus every consecutively parked successor, and
// anything further ahead parks. Call with r.mu held.
func (r *WindowedReceiver) commitSeq(seq uint64, msg []byte) [][]byte {
	if seq < r.nextSeq {
		r.m.windowDupDropped.Inc()
		return nil
	}
	if _, dup := r.pending[seq]; dup {
		r.m.windowDupDropped.Inc()
		return nil
	}
	if seq != r.nextSeq {
		r.pending[seq] = msg
		r.parked.Add(1)
		return nil
	}
	release := [][]byte{msg}
	r.nextSeq++
	for {
		m, ok := r.pending[r.nextSeq]
		if !ok {
			break
		}
		delete(r.pending, r.nextSeq)
		r.parked.Add(-1)
		release = append(release, m)
		r.nextSeq++
	}
	r.m.windowReleased.Add(int64(len(release)))
	return release
}

// handoff moves released messages to the layer above. The accept gate
// reserved room for the whole burst, so the pushes cannot block; the
// default branch keeps the books balanced if that invariant is ever
// broken.
func (r *WindowedReceiver) handoff(release [][]byte) {
	if r.deliver != nil {
		for _, m := range release {
			r.deliver(m)
		}
		return
	}
	for i, m := range release {
		select {
		case r.out <- m:
		default:
			r.m.deliveriesDropped.Add(int64(len(release) - i))
			return
		}
	}
}

// retryTick fires RETRY on every slot in one wheel firing and flushes
// the whole window's CTL packets in one batched conn call — the windowed
// counterpart of Receiver.retryTick, with the same adaptive backoff.
func (r *WindowedReceiver) retryTick() {
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
	out := r.wr.Retry()
	r.flushStats()
	r.retry.Reset(r.interval)
	r.mu.Unlock()
	sendBatchTolerant(r.io.ep, out.Packets)
}
