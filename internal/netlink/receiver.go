package netlink

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"ghm/internal/core"
	"ghm/internal/engine"
	"ghm/internal/metrics"
	"ghm/internal/trace"
)

// defaultRetryInterval paces the receiver's RETRY action: how long a window
// slot waits after its last CTL before it asks again. The protocol needs
// RETRY to fire "infinitely often" on a slot that hears nothing; a couple of
// milliseconds keeps idle links quiet while bounding recovery latency.
const defaultRetryInterval = 2 * time.Millisecond

// deliveryBuffer is how many delivered messages per window slot Recv
// callers may lag behind before the station holds acks (see hold): a
// delivery that leaves buffered + parked at k × deliveryBuffer or more
// keeps its slot's reply back, and the slot sends nothing — no reply, no
// RETRY — until the Recv that brings the count back under the mark. That
// Recv makes the held slots' RETRY due at once (took), and a RETRY
// repeats the slot's last CTL, so it is the ack: the transmitter waits as
// long as the lag and sends no DATA twice. In the model a held ack is a
// CTL the channel lost, and the RETRY one the receiver may fire at any
// time. The buffer is one message per slot deeper than the mark: once the
// hold starts each slot commits at most one more delivery before it is
// held too, so honest traffic never meets the capacity gate (room).
const deliveryBuffer = 16

// ReceiverConfig parameterizes a Receiver.
type ReceiverConfig struct {
	// Window is the depth k (default 1, max core.MaxWindow). It must match
	// the sender's: the depth decides the packet format (core.Framed), and
	// a narrower receiver ignores the extra slots' traffic and stalls them.
	Window int
	// Params configures each slot's protocol receiver.
	Params core.Params
	// RetryInterval paces the RETRY action, slot by slot: a slot's RETRY is
	// due this long after the last CTL the slot put on the wire — its reply
	// to a DATA packet or an earlier RETRY — so a slot whose exchanges are
	// shorter than the interval never fires it. One wheel timer serves the
	// window, and a firing emits the CTLs of the slots that are due in one
	// batched flush (default 2ms).
	RetryInterval time.Duration
	// RetryBackoffMax, when positive, enables adaptive retry pacing, per
	// slot: while a slot's CTLs draw no packet (idle or blacked-out link)
	// the gap to its next RETRY doubles, up to this cap, and the first
	// packet to arrive for the slot brings it back to RetryInterval. Zero
	// keeps the fixed-interval behaviour.
	RetryBackoffMax time.Duration
	// Tap, when non-nil, observes the station's externally visible
	// actions: receive_msg and crash^R, each carrying its slot.
	Tap Tap
	// Metrics receives the station's runtime counters (the rx.* family);
	// nil uses metrics.Default().
	Metrics *metrics.Registry

	// Deliver, when non-nil, replaces the Recv mailbox: every released
	// message (admission frame already stripped) is handed to it
	// synchronously on the engine pump, in release order — possibly
	// several per accepted packet (up to windowReleaseBound) when a
	// release run drains parked successors. It must not block: it runs on
	// the pump every endpoint of the conn shares. Recv must not be used on
	// a Deliver-mode receiver.
	Deliver func(msg []byte)

	// CtlTrailer, when non-nil, appends a trailer of at most MaxTrailer
	// bytes to dst for every CTL the station sends — replies and RETRYs —
	// which goes out sealed to its CTL, ctl ‖ trailer ‖ check
	// (TrailerCheck), for the sender's OnTrailer, which finds the CTL's end
	// by parsing it. It runs on the engine pump or the wheel, outside the
	// station lock, and must not block; a longer trailer is sent empty.
	CtlTrailer func(dst []byte) []byte
}

// MaxTrailer bounds the trailer a receiver puts on a CTL, and
// TrailerCheck is the length of the check that seals it to its CTL and
// ends the packet: the first bytes of SHA-256 over everything before it,
// ctl ‖ trailer. The hash covers the CTL's τ, which an adversary blind to
// contents does not know, so a trailer put onto a genuine CTL — even one
// whose τ vouches — passes with probability 2^−64 a try.
const (
	MaxTrailer   = 255
	TrailerCheck = 8
)

// sealTrailer ends b, a CTL and its trailer, with their check.
func sealTrailer(b []byte) []byte {
	sum := sha256.Sum256(b)
	return append(b, sum[:TrailerCheck]...)
}

// Receiver runs a k-deep window of protocol receivers over a PacketConn
// and hands delivered messages to Recv in the sender's admission order,
// exactly once (up to the protocol's epsilon and station crashes). At the
// default depth 1 it is the paper's receiving station; in a deeper
// window out-of-order slot completions are parked until the gap fills,
// and duplicates from crash-resubmission are dropped by their reused seq
// (see window.go).
//
// The station has no goroutines of its own: inbound packets arrive as
// engine-pump callbacks and the RETRY action rides the engine's shared
// timer wheel, so station and session counts do not multiply goroutines.
type Receiver struct {
	io     stationIO
	tap    Tap
	m      receiverMetrics
	framed bool // core.Framed(depth): payloads carry epoch‖seq, see window.go

	mu     sync.Mutex // guards wr, last, closed, the retry pacing and release state
	wr     *core.WindowedReceiver
	last   core.RxStats // rx stats at the previous flush (delta baseline)
	closed bool

	// Release state of a framed window; a depth-1 station releases what
	// it delivers and allocates no pending set.
	epoch   uint64            // highest sender incarnation seen
	nextSeq uint64            // release cursor: next seq to hand over
	pending map[uint64][]byte // delivered, awaiting earlier seqs

	out     chan []byte
	spare   bufList // messages given back (GiveBack), for copyMsg to refill; holds what was given back, at most cap(out)
	deliver func([]byte)
	trailer func([]byte) []byte

	// The backlog — queued + parked, what the station holds for the layer
	// above — is read without mu by the capacity gate and by Recv; held
	// is written under mu and read by Recv without it.
	queued atomic.Int64  // released for Recv, not yet taken: len(out) plus the pump's hand-off in progress
	parked atomic.Int64  // len(pending) mirror
	held   atomic.Uint64 // slots whose ack is held: bit i is slot i (see hold)

	// Scratch whose contents outlive the unlock their round ends with.
	// That is safe because each has one user and one goroutine runs it:
	// the engine pump runs handlePacket, the wheel runs retryTick.
	release [][]byte // handlePacket: messages to hand over this round
	batch   [][]byte // retryTick: the due slots' CTL packets

	// Retry pacing (guarded by mu): a due time per slot and one wheel timer,
	// set for armed, which is never later than the earliest of them. A CTL
	// the slot puts on the wire is the only thing that moves its due time
	// later — an arrival that earns no reply must not, or a flood of
	// replays could starve RETRY (SECURITY_MODEL.md V10) — so the timer may
	// fire with nothing due, and then only re-arms. Due times are read off
	// the station's clock, one read per packet answered: the wheel's own
	// tick count is cheaper and goes stale by a millisecond whenever the
	// process idles (DESIGN §7), which is when RETRY pacing matters.
	retry            *engine.Timer
	pace             []slotPace
	armed            time.Time
	early            bool // a due time was pulled to now (extension, room after a hold) and has not fired yet
	base, maxBackoff time.Duration

	stop      chan struct{}
	closeOnce sync.Once
}

// slotPace is the RETRY pacing of one window slot.
type slotPace struct {
	due   time.Time     // when the slot's next RETRY is due
	gap   time.Duration // how long after its last CTL that is: base, or what back-off has doubled it to
	heard bool          // a packet has arrived for the slot since its last CTL
}

// NewReceiver builds the window, attaches it to conn's engine and
// schedules its retry timer on the shared wheel.
func NewReceiver(conn PacketConn, cfg ReceiverConfig) (*Receiver, error) {
	if cfg.Window == 0 {
		cfg.Window = 1
	}
	wr, err := core.NewWindowedReceiver(cfg.Window, cfg.Params)
	if err != nil {
		return nil, fmt.Errorf("netlink: receiver: %w", err)
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = defaultRetryInterval
	}
	r := &Receiver{
		tap:        cfg.Tap,
		m:          newReceiverMetrics(cfg.Metrics),
		framed:     core.Framed(cfg.Window),
		wr:         wr,
		out:        make(chan []byte, cfg.Window*(deliveryBuffer+1)),
		spare:      bufList{max: cfg.Window * (deliveryBuffer + 1)}, // a lagging caller can hold no more than out does
		deliver:    cfg.Deliver,
		trailer:    cfg.CtlTrailer,
		pace:       make([]slotPace, cfg.Window),
		base:       cfg.RetryInterval,
		maxBackoff: cfg.RetryBackoffMax,
		stop:       make(chan struct{}),
	}
	if r.framed {
		r.pending = make(map[uint64][]byte)
	}
	r.m.retryIntervalMS.Set(float64(r.base) / float64(time.Millisecond))
	r.io = stationEndpoint(conn, cfg.Metrics)
	// Arm under mu, and before the handler can run: both read r.retry under
	// the same lock, so neither can observe the field before this
	// assignment even if the timer fires, or a packet arrives, immediately.
	r.mu.Lock()
	r.armed = r.io.clock().Now().Add(r.base)
	for i := range r.pace {
		r.pace[i].due, r.pace[i].gap = r.armed, r.base
	}
	r.retry = r.io.ep.Wheel().AfterFunc(r.base, r.retryTick)
	r.mu.Unlock()
	r.io.ep.SetHandler(r.handlePacket)
	return r, nil
}

// emit reports one externally visible action; callers hold r.mu so taps
// observe actions in commit order.
func (r *Receiver) emit(k trace.Kind, msg []byte, slot int) {
	if r.tap != nil {
		r.tap(k, msg, slot)
	}
}

// flushStats publishes the window's per-incarnation protocol counters
// into the registry as deltas, keeping the registry cumulative across
// crashes, and reports whether a challenge was extended since the last
// flush. Call with r.mu held, and always immediately before wr.Crash().
func (r *Receiver) flushStats() (extended bool) {
	st := r.wr.Stats()
	extended = st.Extensions != r.last.Extensions
	r.m.packetsSent.Add(int64(st.PacketsSent - r.last.PacketsSent))
	r.m.delivered.Add(int64(st.Delivered - r.last.Delivered))
	r.m.errorsCounted.Add(int64(st.ErrorsCounted - r.last.ErrorsCounted))
	r.m.challengeExts.Add(int64(st.Extensions - r.last.Extensions))
	r.m.replayRejections.Add(int64(st.Ignored - r.last.Ignored))
	r.last = st
	return extended
}

// Recv blocks for the next message, in the sender's admission order. The
// message is the caller's, for good; a caller that is done with it may
// hand it back (GiveBack) instead of leaving it to the garbage collector.
//
// If the station holds acks because the buffer filled, the Recv that
// brings it back under the mark lets them go (took).
func (r *Receiver) Recv(ctx context.Context) ([]byte, error) {
	select {
	case m := <-r.out:
		r.took()
		return m, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-r.stop:
	case <-r.io.ep.Dead():
		// The conn died under us.
	}
	// Drain what was released before the station stopped.
	select {
	case m := <-r.out:
		r.took()
		return m, nil
	default:
		return nil, ErrClosed
	}
}

// GiveBack returns a message obtained from Recv (or Deliver) to the
// station, which will deliver a later message in its memory. It is
// optional and for callers that consume a message on the spot, as a relay
// hop does: the caller must keep no reference to msg, or to any part of
// it, once it has called. Messages never given back are never reused.
// Safe from any goroutine; the list is bounded, and a message it has no
// room for is left to the garbage collector.
func (r *Receiver) GiveBack(msg []byte) { r.spare.put(msg) }

// Crash simulates crash^R with the shared crash model: every slot's
// protocol memory is erased at once. Messages already handed to the
// session buffer were delivered to the higher layer in the model's sense
// and remain readable. The release cursor, parked deliveries and held
// acks are runtime memory (the hosting process survives a protocol crash)
// and persist — the cursor is what drops the redeliveries the crash
// licenses, and a held slot stays silent until the buffer has room, when
// its fresh machine's RETRY asks for the message again.
func (r *Receiver) Crash() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushStats()
	r.wr.Crash()
	r.last = core.RxStats{}
	r.m.crashes.Inc()
	r.emit(trace.KindCrashR, nil, 0)
}

// Stats returns the window's aggregated protocol counters.
func (r *Receiver) Stats() core.RxStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wr.Stats()
}

// Close stops the retry timer and detaches the station from its engine
// (closing the conn when the station owns it — see stationEndpoint).
//
// Audit note (the symmetric check to the sender's abandoned-transfer
// fix): the receiver keeps no waiter, so Close cannot strand one. A
// delivery is committed — taped as receive_msg, counted — under r.mu
// before it enters the session buffer, and Recv keeps draining released
// messages after Close, so closing cannot un-deliver or double-deliver.
// The losses Close can cause are a released message that no Recv call
// ever drains and a parked out-of-order delivery, which was
// protocol-committed but can no longer be released in order; both are
// counted as rx.deliveries_dropped.
func (r *Receiver) Close() error {
	r.closeOnce.Do(func() {
		r.mu.Lock()
		r.closed = true
		parked := len(r.pending)
		clear(r.pending)
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

// backlog is buffered + parked: the messages the station holds for the
// layer above. Only the pump adds to it and Recv may take from it at any
// time, so on the pump a reading can only be high.
func (r *Receiver) backlog() int64 { return r.queued.Load() + r.parked.Load() }

// full reports whether the backlog has reached the hold mark, k ×
// deliveryBuffer.
func (r *Receiver) full() bool { return r.backlog() >= int64(len(r.pace)*deliveryBuffer) }

// room is the station's capacity gate, the guard for what a hold cannot
// rule out: a delivery forged within the protocol's epsilon on a held
// slot. One accepted packet commits at most one protocol delivery, which
// grows the backlog by at most one; keeping it below the buffer capacity
// guarantees a release burst (1 + drained pending) always fits without
// blocking the pump. A single producer (the pump) means the check cannot
// race into overflow: space observed here is still there at hand-off
// time. The gate runs on the pump before r.mu is taken, while Close
// (another goroutine) may be resetting the pending map under r.mu — so it
// reads the atomic mirrors, never the map.
func (r *Receiver) room() bool { return r.backlog() < int64(cap(r.out)) }

// handlePacket is the engine-pump callback: one protocol round for one
// slot. It never blocks: when a delivery fills the buffer to the hold
// mark, the slot's reply is held back (hold) and the transmitter waits
// for it, so flow control costs no packet. (A handler that blocked on the
// session buffer instead would let one slow receiver stall every endpoint
// on the conn's shared pump.) Only a packet the capacity gate refuses is
// shed, unprocessed, as link loss. A delivery is committed — taped,
// counted — under r.mu before the reply leaves, so a tap always observes
// receive_msg(m) before any OK it can cause, then goes through the
// in-order release.
func (r *Receiver) handlePacket(p []byte) {
	if !r.room() {
		r.m.ingressShed.Inc()
		return
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	buf := getPacketBuf()
	reply, d, delivered := r.wr.AppendReceivePacket(*buf, p)
	r.m.packetsReceived.Inc()
	release := r.release[:0]
	if delivered {
		release = r.commit(release, d)
		r.release = release
		if r.deliver == nil {
			r.queued.Add(int64(len(release)))
			r.hold(d.Slot)
		}
	}
	if len(reply) > 0 && r.held.Load()&(1<<uint(d.Slot)) != 0 {
		reply = reply[:0]
		r.m.acksHeld.Inc()
	}
	r.paceArrival(d.Slot, len(reply) > 0, r.flushStats())
	r.mu.Unlock()

	if r.trailer != nil && len(reply) > 0 {
		reply = r.trail(reply)
	}
	// A conn closed mid-reply still gets what committed handed over.
	r.io.transmit(buf, reply)
	r.handoff(release)
	clear(release) // the scratch must not pin what the layer above now owns
}

// copyMsg is the one allocation of a confirmed message: msg aliases the
// inbound packet, which the conn lends only until the pump's next Recv
// (PacketConn.Recv), and the copy is what Recv hands to its caller. The
// copy goes into a message a caller gave back, when there is one; the
// allocation is bufList.copy's empty-list fallback — the one allocation
// TestStationRoundAllocBudget allows a round, and none when every message
// is given back (TestReceiverGiveBackAllocBudget).
func (r *Receiver) copyMsg(msg []byte) []byte { return r.spare.copy(msg) }

// commit runs one protocol delivery through the in-order release and
// appends what it releases to release. Call with r.mu held.
func (r *Receiver) commit(release [][]byte, d core.SlotMsg) [][]byte {
	if !r.framed {
		r.emit(trace.KindReceiveMsg, d.Msg, d.Slot)
		r.m.windowReleased.Inc()
		release = append(release, r.copyMsg(d.Msg))
		return release
	}
	epoch, seq, msg, ok := unframeSeq(d.Msg)
	if !ok {
		// Only a peer of another depth produces an unframed payload; it
		// cannot be sequenced, so it is dropped — and counted, never
		// silently.
		r.m.deliveriesDropped.Inc()
		return release
	}
	// The protocol delivery commits here, dup or not: a resubmitted
	// attempt is a distinct send_msg and verify licenses its delivery.
	// The seq layer decides what the application sees.
	r.emit(trace.KindReceiveMsg, msg, d.Slot)
	switch {
	case epoch < r.epoch:
		// A straggler from a dead sender incarnation: its seq space was
		// abandoned when the higher epoch arrived.
		r.m.windowDupDropped.Inc()
		return release
	case epoch > r.epoch:
		// A rebuilt sender. Its admission seqs restart at zero; adopt the
		// new incarnation's seq space. Parked deliveries of the old one
		// can never release in order now — count them out.
		r.epoch = epoch
		r.nextSeq = 0
		if n := len(r.pending); n > 0 {
			r.m.deliveriesDropped.Add(int64(n))
			clear(r.pending)
			r.parked.Store(0)
		}
	}
	release = r.commitSeq(release, seq, msg)
	r.m.windowPending.Set(float64(len(r.pending)))
	return release
}

// commitSeq is the release machine: duplicates (below the cursor, or
// already parked) are dropped, the cursor's seq releases itself plus
// every consecutively parked successor, and anything further ahead
// parks. msg is copied if kept. Call with r.mu held.
func (r *Receiver) commitSeq(release [][]byte, seq uint64, msg []byte) [][]byte {
	if _, dup := r.pending[seq]; dup || seq < r.nextSeq {
		r.m.windowDupDropped.Inc()
		return release
	}
	msg = r.copyMsg(msg)
	if seq != r.nextSeq {
		r.pending[seq] = msg
		r.parked.Add(1)
		return release
	}
	n := len(release)
	release = append(release, msg)
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
	r.m.windowReleased.Add(int64(len(release) - n))
	return release
}

// handoff moves released messages to the layer above. The capacity gate
// reserved room for the whole burst before the machine ran, so the
// pushes cannot block; the default branch only fires if that invariant
// is ever broken, and keeps the books balanced (delivered = drained +
// buffered + dropped) if it does.
func (r *Receiver) handoff(release [][]byte) {
	for i, m := range release {
		if r.deliver != nil {
			r.deliver(m)
			continue
		}
		select {
		case r.out <- m:
		default:
			r.queued.Add(-int64(len(release) - i))
			r.m.deliveriesDropped.Add(int64(len(release) - i))
			return
		}
	}
}

// paceArrival is what one processed packet does to its slot's RETRY
// pacing. A reply is a CTL on the wire: the slot asks again one interval
// from now. An arrival that earned none moves nothing later; it can only
// bring RETRY forward — to now when it extended the slot's challenge (the
// transmitter's next DATA would answer a challenge that no longer exists,
// and nothing else would tell it so before the slot is next due), to one
// interval from now when the slot had backed off further than that. The
// common arrival that earns no reply reads no clock. Call with r.mu held.
func (r *Receiver) paceArrival(slot int, replied, extended bool) {
	sp := &r.pace[slot]
	if !replied {
		sp.heard = true
		if !extended && sp.gap <= r.base {
			return
		}
	}
	now := r.io.clock().Now()
	due := now.Add(r.base)
	switch {
	case replied:
		sp.heard = false
	case extended:
		due, r.early = now, true
	case !due.Before(sp.due):
		return // backed off, yet due within the interval as it is
	}
	sp.due, sp.gap = due, r.base
	r.pull(due, now)
}

// pull brings the wheel timer forward to at, if it is set for later or
// stopped. Call with r.mu held.
func (r *Receiver) pull(at, now time.Time) {
	if r.armed.IsZero() || at.Before(r.armed) {
		r.armed = at
		r.retry.Reset(at.Sub(now))
	}
}

// hold holds slot's ack when the delivery it just committed leaves the
// backlog at the hold mark: the reply does not go, and the slot is silent
// — no reply, no RETRY — until a Recv makes room (took). The mark is set
// before the backlog is read again, and a Recv takes its message before it
// reads the mark, so of a hold and a Recv that makes room at the same
// time at least one sees the other: no hold outlives the room it waits
// for. Call with r.mu held.
func (r *Receiver) hold(slot int) {
	if !r.full() {
		return
	}
	h := r.held.Load()
	r.held.Store(h | 1<<uint(slot))
	if !r.full() {
		r.held.Store(h)
	}
}

// took books a message Recv took from the buffer and, when acks are held
// and the backlog is back under the mark, lets them go: each held slot's
// RETRY is due now, and a RETRY repeats the slot's last CTL — same ρ,
// same τ — so it is the ack the slot held back. The paper lets RETRY fire
// at any time, so Section 2.6 is untouched. While the backlog is still at
// the mark it does nothing; a later Recv tries again.
func (r *Receiver) took() {
	r.queued.Add(-1)
	if r.held.Load() == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.held.Load()
	if r.closed || h == 0 || r.full() {
		return
	}
	now := r.io.clock().Now()
	for s := h; s != 0; s &= s - 1 {
		r.pace[bits.TrailingZeros64(s)].due = now
	}
	r.held.Store(0)
	r.early = true
	r.pull(now, now)
}

// retryTick is the pacing step, run by the engine's shared timer wheel:
// it fires the RETRY action on the slots that are due and not held —
// none, when every due time has moved on since the timer was set, as on a
// busy link it always has — and sets the timer for the earliest due time
// there is then.
func (r *Receiver) retryTick() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	now := r.io.clock().Now()
	var due uint64
	for i := range r.pace {
		if !r.pace[i].due.After(now) {
			due |= 1 << uint(i)
		}
	}
	due &^= r.held.Load()
	early := r.early
	r.early = false
	if due == 0 {
		r.arm(now)
		r.mu.Unlock()
		return
	}
	if early {
		r.m.retryEarly.Inc()
	}
	buf, pkts, batch := r.retryLocked(due, now)
	r.mu.Unlock()
	r.sendRetry(buf, pkts, batch)
}

// sendRetry sends what retryLocked encoded, one CTL per Send, and returns
// buf to the pool. With a trailer hook each CTL is copied into one second
// pooled buffer and sealed there to its own trailer before it goes.
func (r *Receiver) sendRetry(buf *[]byte, pkts []byte, batch [][]byte) {
	if r.trailer == nil {
		for _, p := range batch {
			_ = r.io.ep.Send(p)
		}
	} else {
		out := getPacketBuf()
		o := *out
		for _, p := range batch {
			o = r.trail(append(o[:0], p...))
			_ = r.io.ep.Send(o)
		}
		r.io.transmit(out, o[:0])
	}
	r.io.transmit(buf, pkts[:0])
}

// trail appends the hook's trailer to the CTL pkt and seals it.
func (r *Receiver) trail(pkt []byte) []byte {
	n := len(pkt)
	if pkt = r.trailer(pkt); len(pkt)-n > MaxTrailer {
		pkt = pkt[:n]
	}
	return sealTrailer(pkt)
}

// retryLocked is the RETRY action on a set of slots (bit i is slot i), due
// or not: it encodes their CTL packets, paces each slot
// from the CTL it just sent — one interval on, or with back-off enabled
// twice the slot's last gap, up to maxBackoff, when nothing has arrived for
// the slot since its previous CTL — and re-arms the timer. Retry traffic fades slot by
// slot on a dead link without giving up the "infinitely often" the
// protocol needs. Call with r.mu held; the caller sends what it returns
// with sendRetry after unlocking.
func (r *Receiver) retryLocked(slots uint64, now time.Time) (buf *[]byte, pkts []byte, batch [][]byte) {
	buf = getPacketBuf()
	pkts, batch = r.wr.AppendRetry(*buf, r.batch[:0], slots)
	r.batch = batch
	var gap time.Duration
	for s := slots; s != 0; s &= s - 1 {
		sp := &r.pace[bits.TrailingZeros64(s)]
		if gap = r.base; !sp.heard && r.maxBackoff > r.base {
			gap = min(2*sp.gap, r.maxBackoff)
		}
		sp.due, sp.gap, sp.heard = now.Add(gap), gap, false
	}
	r.m.retries.Inc()
	r.m.retryCTLs.Add(int64(len(batch)))
	r.m.retryIntervalMS.Set(float64(gap) / float64(time.Millisecond))
	r.flushStats()
	r.arm(now)
	return buf, pkts, batch
}

// arm sets the wheel timer for the earliest due time of a slot not held;
// with every slot held it stops the timer, and the Recv that lets the
// holds go sets it again (pull). Call with r.mu held.
func (r *Receiver) arm(now time.Time) {
	held := r.held.Load()
	r.armed = time.Time{}
	for i := range r.pace {
		if d := r.pace[i].due; held&(1<<uint(i)) == 0 && (r.armed.IsZero() || d.Before(r.armed)) {
			r.armed = d
		}
	}
	if r.armed.IsZero() {
		r.retry.Stop()
		return
	}
	r.retry.Reset(r.armed.Sub(now))
}
