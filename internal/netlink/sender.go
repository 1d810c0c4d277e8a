package netlink

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"ghm/internal/core"
	"ghm/internal/metrics"
	"ghm/internal/trace"
	"ghm/internal/wire"
)

// Tap observes a station's externally visible actions as the station
// commits them: the action's kind, the payload of a send_msg or
// receive_msg (nil otherwise) and the window slot. It is invoked with the
// station lock held, so callbacks must be fast and must not call back
// into the station, and msg is the station's own buffer — the caller's
// message, or the inbound packet — valid only until the callback returns:
// a tap that keeps the bytes copies them. Feeding both stations' taps
// into one verify.Live turns any run into a live check of the paper's
// Section 2.6 conditions, and that checker digests the bytes in place.
type Tap func(kind trace.Kind, msg []byte, slot int)

// SenderConfig parameterizes a Sender.
type SenderConfig struct {
	// Window is the depth k: how many Sends may be in flight at once
	// (default 1, the paper's stop-and-wait station; max core.MaxWindow).
	Window int
	// Params configures each slot's protocol transmitter.
	Params core.Params
	// Tap, when non-nil, observes the station's externally visible
	// actions: send_msg, OK and crash^T, each carrying its slot.
	Tap Tap
	// Metrics receives the station's runtime counters (the tx.* family);
	// nil uses metrics.Default().
	Metrics *metrics.Registry
	// Epoch distinguishes successive sender incarnations talking to one
	// long-lived receiver: the receiver adopts the highest epoch it sees
	// and resets its release cursor for it, so a rebuilt sender (whose
	// admission seqs restart at zero) is not mistaken for a replay of the
	// old one. Supervised sessions pass their incarnation number; a
	// single-incarnation pair leaves it 0. Raising the epoch abandons the
	// previous incarnation's in-order dedup, so delivery across a rebuild
	// is at-least-once — the session's documented contract. A depth-1
	// station writes no admission frame (core.Framed) and ignores it.
	Epoch uint64

	// OnTrailer, when non-nil, splits a ReceiverConfig.CtlTrailer trailer
	// off every CTL before the protocol sees it, and is handed the trailer
	// of each CTL whose τ vouches for it (core: the current tag or the last
	// completed one), on the engine pump, outside the station lock: it must
	// not block, and trailer is valid only during the call. A packet with
	// no CTL to parse, fewer than TrailerCheck bytes after it, or a check
	// that does not match is dropped, counted in tx.replay_rejections.
	// Both ends of a link set the hooks or neither.
	OnTrailer func(trailer []byte)
}

// Sender runs a k-deep window of protocol transmitters over a PacketConn
// and offers blocking exactly-once sends: up to k Send calls proceed
// concurrently, each owning one slot, and Send returns nil only after
// that slot's protocol OK, i.e. after the message was delivered (with
// probability at least 1-epsilon) to the receiving station's higher
// layer. At the default depth 1 it is the paper's transmitting station.
// One station, one tap stream, one crash model: cancelling any in-flight
// Send (or Crash/Close) wipes the whole window, because the model's only
// abandonment action is crash^T and a crash erases the entire station.
//
// The station has no goroutine of its own: inbound packets arrive as
// engine-pump callbacks (see stationEndpoint), so a thousand senders on
// one conn still cost one read pump.
type Sender struct {
	io     stationIO
	tap    Tap
	m      senderMetrics
	k      int
	framed bool // core.Framed(k): payloads carry epoch‖seq, see window.go
	epoch  uint64
	// onTrailer is SenderConfig.OnTrailer.
	onTrailer func([]byte)

	// results carries each slot's outcome to the Send that holds the slot:
	// one cap-1 channel per slot, made once. The slot token gives one Send
	// exclusive use of its channel, and every registration (waiting[slot]
	// set) gets exactly one resolution — handlePacket or crashLocked
	// clears the flag and sends — or clears the flag itself in settle; the
	// Send consumes the resolution before it hands the token back, so the
	// channel is empty whenever the token is in s.free.
	results []chan error

	mu      sync.Mutex // guards everything below
	wt      *core.WindowedTransmitter
	waiting []bool       // per slot; set while a Send awaits its OK
	last    core.TxStats // stats at the previous flush (delta baseline)

	// Admission state of a framed window (see window.go); a depth-1
	// station allocates none of it.
	slotMsg  [][]byte            // per slot: the payload in flight, kept for wiped
	slotSeq  []uint64            // per slot: admission seq of that payload
	nextSeq  uint64              // next fresh admission seq
	wiped    map[string][]uint64 // payload bytes -> wiped seqs, for resubmission reuse
	frameBuf []byte              // scratch: epoch‖seq‖msg on its way into a slot
	spanWait chan struct{}       // non-nil while a Send waits out the span bound; closed on the next OK

	free chan int // slot tokens; admission waits here, bounding in-flight at k

	stop      chan struct{}
	closeOnce sync.Once
}

// NewSender builds the window and attaches it to conn's engine.
func NewSender(conn PacketConn, cfg SenderConfig) (*Sender, error) {
	if cfg.Window == 0 {
		cfg.Window = 1
	}
	wt, err := core.NewWindowedTransmitter(cfg.Window, cfg.Params)
	if err != nil {
		return nil, fmt.Errorf("netlink: sender: %w", err)
	}
	s := &Sender{
		tap:       cfg.Tap,
		m:         newSenderMetrics(cfg.Metrics),
		k:         cfg.Window,
		framed:    core.Framed(cfg.Window),
		epoch:     cfg.Epoch,
		onTrailer: cfg.OnTrailer,
		wt:        wt,
		results:   make([]chan error, cfg.Window),
		waiting:   make([]bool, cfg.Window),
		free:      make(chan int, cfg.Window),
		stop:      make(chan struct{}),
	}
	if s.framed {
		s.slotMsg = make([][]byte, cfg.Window)
		s.slotSeq = make([]uint64, cfg.Window)
		s.wiped = make(map[string][]uint64)
	}
	for i := 0; i < cfg.Window; i++ {
		s.results[i] = make(chan error, 1)
		s.free <- i
	}
	s.io = stationEndpoint(conn, cfg.Metrics)
	s.io.ep.SetHandler(s.handlePacket)
	return s, nil
}

// emit reports one externally visible action; callers hold s.mu so taps
// observe actions in commit order.
func (s *Sender) emit(k trace.Kind, msg []byte, slot int) {
	if s.tap != nil {
		s.tap(k, msg, slot)
	}
}

// flushStats publishes the window's per-incarnation protocol counters
// into the registry as deltas, keeping the registry cumulative across
// crashes. Call with s.mu held, and always immediately before wt.Crash(),
// which zeroes the counters the deltas are computed from.
func (s *Sender) flushStats() {
	st := s.wt.Stats()
	s.m.packetsSent.Add(int64(st.PacketsSent - s.last.PacketsSent))
	s.m.oks.Add(int64(st.OKs - s.last.OKs))
	s.m.errorsCounted.Add(int64(st.ErrorsCounted - s.last.ErrorsCounted))
	s.m.tagExtensions.Add(int64(st.Extensions - s.last.Extensions))
	s.m.replayRejections.Add(int64(st.Ignored - s.last.Ignored))
	s.last = st
}

// crashLocked performs the station's crash^T: stats flushed first (the
// wipe zeroes them), every slot's memory wiped at once, every in-flight
// payload of a framed window recorded for seq reuse, the event taped, the
// crash counted — and only then every still-parked waiter resolved with
// ErrCrashed, so a Send that reports the crash finds it on the tape.
// Call with s.mu held. The result sends cannot block: a set waiting flag
// means the slot's channel (cap 1) is empty and whoever clears the flag
// owns its one send.
func (s *Sender) crashLocked() {
	s.flushStats()
	for i := range s.waiting {
		if s.wt.SlotBusy(i) {
			s.m.windowWiped.Inc()
			if s.framed {
				// Append, never assign: byte-identical payloads on different
				// slots each contribute their own seq to the multiset.
				key := string(s.slotMsg[i])
				s.wiped[key] = append(s.wiped[key], s.slotSeq[i])
			}
		}
	}
	s.wt.Crash()
	s.last = core.TxStats{}
	s.m.crashes.Inc()
	s.m.windowInflight.Set(0)
	s.emit(trace.KindCrashT, nil, 0)
	for i, waiting := range s.waiting {
		if waiting {
			s.waiting[i] = false
			s.m.abandoned.Inc()
			s.results[i] <- ErrCrashed
		}
	}
}

// settle resolves an interrupted Send for slot. If the transfer is still
// pending, the station crashes itself — the model offers no "cancel"
// action, so an abandoned transfer is accounted as crash^T, and wiping
// the window guarantees a stale OK arriving later cannot match it — and
// settle reports nothing to drain. If the OK (or a concurrent crash)
// raced ahead and already cleared the waiting flag, its buffered result
// is guaranteed to arrive promptly (the resolver sends before touching
// the conn — see handlePacket); settle drains it and hands it back, so a
// transfer whose OK beat the cancellation is reported delivered, never
// failed — and the slot's channel is empty again for the next Send.
func (s *Sender) settle(slot int) (error, bool) {
	s.mu.Lock()
	if s.waiting[slot] {
		s.waiting[slot] = false
		s.m.abandoned.Inc()
		s.crashLocked()
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Unlock()
	return <-s.results[slot], true
}

// finish translates a waiter result into Send's return, observing the
// confirm latency for delivered transfers — including a late OK drained
// by settle after losing the race to a cancellation.
func (s *Sender) finish(start time.Time, err error) error {
	if err == nil {
		// Elapsed on the station's own clock: start was read from it, and
		// the wall clock stands in no relation to it under virtual time.
		s.m.okLatencyMS.Observe(float64(s.io.clock().Now().Sub(start)) / float64(time.Millisecond))
		return nil
	}
	return err
}

// await receives from ch unless the Send waiting on it has to give up
// first: its context ended, or the station was closed, detached from its
// engine, or left without a conn by a dead pump (surfacing ErrClosed
// beats leaving the Send parked until its context expires).
func await[T any](ctx context.Context, s *Sender, ch <-chan T) (v T, err error) {
	select {
	case v = <-ch:
		return v, nil
	case <-ctx.Done():
		return v, ctx.Err()
	case <-s.stop:
	case <-s.io.ep.Closed():
	case <-s.io.ep.Dead():
	}
	return v, ErrClosed
}

// Send transfers msg and blocks until the protocol confirms delivery (OK),
// the context ends, or the sender is closed or crashed. Up to k calls
// proceed concurrently; each waits for a free window slot first. On
// context cancellation or Close the in-flight transfer cannot be plainly
// abandoned — the model offers no "cancel" action — so the station
// crashes itself (memory erased), exactly as a real host would be
// power-cycled. At depth 1 that is the whole story: the next Send starts
// fresh. In a deeper window the crash also fails the concurrent Sends
// with ErrCrashed, and every wiped payload must be resubmitted
// byte-identical to keep the receiver's in-order release moving
// (ghm.Session does this automatically; see window.go).
func (s *Sender) Send(ctx context.Context, msg []byte) error {
	var slot int
	payload := msg
	for {
		select {
		case slot = <-s.free: // the common case, without a five-way select
		default:
			var err error
			if slot, err = await(ctx, s, s.free); err != nil {
				return err
			}
		}
		s.mu.Lock()
		if !s.framed {
			break
		}
		seq, wait := s.admitSeq(msg)
		if wait == nil {
			s.frameBuf = appendSeqFrame(s.frameBuf[:0], s.epoch, seq, msg)
			payload = s.frameBuf
			s.slotMsg[slot] = append(s.slotMsg[slot][:0], msg...)
			s.slotSeq[slot] = seq
			break
		}
		// Held back by the span bound. Wait without the slot: the
		// resubmission the span is waiting for may need it.
		s.mu.Unlock()
		s.free <- slot
		if _, err := await(ctx, s, wait); err != nil {
			return err
		}
	}
	// The token returns unconditionally: cap k and single ownership make
	// this send non-blocking.
	defer func() { s.free <- slot }()

	buf := getPacketBuf()
	pkt, err := s.wt.AppendSendMsg(*buf, slot, payload)
	if err != nil {
		// Unreachable while the token invariant holds (a held token means a
		// free slot); file the seq as wiped so a stray failure cannot poison
		// the stream with a hole.
		if s.framed {
			s.wiped[string(msg)] = append(s.wiped[string(msg)], s.slotSeq[slot])
		}
		s.mu.Unlock()
		s.io.transmit(buf, pkt) // nothing was appended: this only returns buf
		return fmt.Errorf("netlink: send: %w", err)
	}
	s.m.sendMsgs.Inc()
	s.m.windowAdmitted.Inc()
	s.emit(trace.KindSendMsg, msg, slot)
	s.waiting[slot] = true
	s.m.windowInflight.Set(float64(s.wt.InFlight()))
	s.flushStats()
	s.mu.Unlock()

	start := s.io.clock().Now()
	s.io.transmit(buf, pkt)

	res, err := await(ctx, s, s.results[slot])
	if err != nil {
		var drained bool
		if res, drained = s.settle(slot); !drained {
			return err
		}
	}
	return s.finish(start, res)
}

// Crash simulates crash^T on the whole station: every slot's memory is
// erased at once and every pending Send fails with ErrCrashed.
func (s *Sender) Crash() {
	s.mu.Lock()
	s.crashLocked()
	s.mu.Unlock()
}

// Stats returns the window's aggregated protocol counters.
func (s *Sender) Stats() core.TxStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wt.Stats()
}

// Close detaches the station from its engine (closing the conn when the
// station owns it — see stationEndpoint). Pending Sends fail with
// ErrClosed or ErrCrashed (the first to settle crashes the window; the
// rest observe that crash), their transfers abandoned via the same
// crash^T bookkeeping as a context cancellation, so no waiter survives
// Close to be matched by a stale OK.
func (s *Sender) Close() error {
	s.closeOnce.Do(func() {
		close(s.stop)
		s.io.close()
	})
	return nil
}

// handlePacket is the engine-pump callback: one protocol round for one
// slot. It must not block — the slot's result channel is buffered and its
// one send belongs to whoever clears the waiting flag under the lock, so
// the resolve cannot stall the pump.
func (s *Sender) handlePacket(p []byte) {
	var trailer []byte
	if s.onTrailer != nil {
		var ok bool
		if p, trailer, ok = splitTrailer(p, s.framed); !ok {
			s.m.replayRejections.Inc()
			return
		}
	}
	buf := getPacketBuf()
	s.mu.Lock()
	pkt, slot, vouched := s.wt.AppendReceivePacket(*buf, p)
	s.m.packetsReceived.Inc()
	resolve := false
	if slot >= 0 {
		s.emit(trace.KindOK, nil, slot)
		resolve = s.waiting[slot]
		s.waiting[slot] = false
		s.m.windowInflight.Set(float64(s.wt.InFlight()))
		if s.spanWait != nil {
			// The lowest unconfirmed seq may have moved: let admissions
			// held by the span bound look again.
			close(s.spanWait)
			s.spanWait = nil
		}
	}
	s.flushStats()
	s.mu.Unlock()

	// Resolve before the conn write: settle's drain of a cleared waiter is
	// then bounded by lock handoff alone, never by how long a PacketConn
	// implementation blocks in Send. The replies tolerate the reordering —
	// they cross an unreliable link anyway.
	if resolve {
		//lint:allow nonblockinghandler the slot's result channel is buffered (cap 1), empty while its waiting flag is set, and this send is the one the cleared flag licenses: it cannot block
		s.results[slot] <- nil
	}
	if vouched && s.onTrailer != nil {
		s.onTrailer(trailer)
	}
	s.io.transmit(buf, pkt)
}

// splitTrailer splits ctl ‖ trailer ‖ check, as sealTrailer sealed it,
// where the CTL (behind its slot frame when framed) ends as it parses; ok
// is false when no CTL parses, or no check follows it, or it does not match.
func splitTrailer(p []byte, framed bool) (ctl, trailer []byte, ok bool) {
	n := 0
	if framed {
		if _, n = binary.Uvarint(p); n <= 0 {
			return nil, nil, false
		}
	}
	_, rest, err := wire.ParseCtl(p[n:])
	if err != nil || len(rest) < TrailerCheck {
		return nil, nil, false
	}
	end := len(p) - TrailerCheck
	if sum := sha256.Sum256(p[:end]); !bytes.Equal(sum[:TrailerCheck], p[end:]) {
		return nil, nil, false
	}
	start := len(p) - len(rest)
	return p[:start], p[start:end], true
}
