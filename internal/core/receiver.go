package core

import (
	"slices"

	"ghm/internal/bitstr"
	"ghm/internal/wire"
)

// RxOutput collects the output actions of one receiver input event.
type RxOutput struct {
	// Delivered holds the messages passed to the higher layer
	// (receive_msg actions); at most one per input event, a fresh copy.
	Delivered [][]byte
	// Packets are encoded CTL packets to place on the R->T channel (at
	// most one per event), freshly allocated.
	Packets [][]byte
}

// RxStats counts receiver-side events since construction or the last
// crash.
type RxStats struct {
	PacketsSent   int // CTL packets emitted
	Delivered     int // receive_msg actions
	ErrorsCounted int // same-length challenge mismatches (num^R increments)
	Extensions    int // challenge extensions (t^R increments)
	Ignored       int // packets dropped: malformed or stale
}

// Receiver is the receiving module (RM) of the protocol. It follows
// Figure 5 of the technical report. Methods must be called from one
// goroutine at a time.
type Receiver struct {
	p     Params
	frame []byte // written ahead of every packet: empty, or a window's slot id

	rho     bitstr.Str // rho^R_k: current challenge
	rhoPrev bitstr.Str // rho^R_{k-1}: previous challenge (error-count exclusion)
	tauLast bitstr.Str // tau^R_{k-1}: tag of the last delivered message

	t   int    // t^R: extension level of rho
	num int    // num^R: same-length mismatches at the current level
	iR  uint64 // i^R: retry counter since the last delivery or crash

	k     int // delivered messages (analysis only)
	stats RxStats
}

// NewReceiver returns a receiver in its post-crash initial state: it holds
// the reserved crash tag and a fresh level-1 challenge.
func NewReceiver(p Params) (*Receiver, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	rx := &Receiver{p: p}
	rx.reset()
	return rx, nil
}

// reset implements both construction and the crash^R action (Figure 5's
// crash handler): k = 1, t = 1, num = 0, tauLast = tau_crash, fresh rho,
// i = 1.
func (rx *Receiver) reset() {
	rx.t = 1
	rx.num = 0
	rx.iR = 1
	rx.tauLast = tauCrash()
	rx.rhoPrev = bitstr.Empty()
	rx.rho = rx.p.Source.Draw(rx.p.Size(1))
}

// Crash models crash^R: the entire memory of the station is erased.
func (rx *Receiver) Crash() {
	rx.reset()
	rx.k = 0
	rx.stats = RxStats{}
}

// Delivered returns the number of receive_msg events since construction or
// the last crash.
func (rx *Receiver) Delivered() int { return rx.k }

// RhoLen returns the current challenge length in bits (experiment E5).
func (rx *Receiver) RhoLen() int { return rx.rho.Len() }

// Level returns the current extension level t^R.
func (rx *Receiver) Level() int { return rx.t }

// Stats returns a copy of the receiver's event counters.
func (rx *Receiver) Stats() RxStats { return rx.stats }

// Retry is AppendRetry returning a freshly allocated packet, for callers
// that keep packets across events.
func (rx *Receiver) Retry() (out RxOutput) {
	out.Packets = packets(rx.AppendRetry(nil))
	return out
}

// AppendRetry models the internal RETRY action: it appends the current
// (challenge, last tag, retry counter) triple to dst as a CTL packet and
// bumps the counter. The protocol's liveness assumes RETRY occurs
// infinitely often; callers drive it from a timer (runtime) or scheduler
// (simulator).
func (rx *Receiver) AppendRetry(dst []byte) []byte {
	var c wire.Ctl
	c.Rho, c.Tau, c.I = rx.rho, rx.tauLast, rx.iR
	dst = slices.Grow(dst, rx.retrySize())
	dst = append(dst, rx.frame...)
	dst = wire.AppendCtl(dst, c)
	rx.iR++
	rx.stats.PacketsSent++
	return dst
}

// retrySize is the length of the packet the next AppendRetry appends.
func (rx *Receiver) retrySize() int {
	var c wire.Ctl
	c.Rho, c.Tau, c.I = rx.rho, rx.tauLast, rx.iR
	return len(rx.frame) + c.Size()
}

// ReceivePacket is AppendReceivePacket returning a freshly allocated
// packet and a copy of the delivered message.
func (rx *Receiver) ReceivePacket(p []byte) (out RxOutput) {
	pkt, msg, delivered := rx.AppendReceivePacket(nil, p)
	if !delivered {
		out.Packets = packets(pkt)
		return out
	}
	// A delivery always comes with its ack: one header carries both.
	// The copy is the wrapper's: msg aliases p, which the caller may reuse.
	both := [][]byte{pkt, append([]byte(nil), msg...)}
	out.Packets, out.Delivered = both[:1:1], both[1:]
	return out
}

// AppendReceivePacket models receive_pkt^{T->R}(m, rho, tau) per Figure
// 5: it appends the CTL packet the event emits, if any, to dst, and when
// the event is a receive_msg action reports delivered with msg aliasing
// p — the caller copies it before p is reused. Malformed packets are
// ignored.
func (rx *Receiver) AppendReceivePacket(dst, p []byte) (out, msg []byte, delivered bool) {
	data, err := wire.DecodeData(p)
	if err != nil {
		rx.stats.Ignored++
		return dst, nil, false
	}
	return rx.receiveData(dst, data)
}

func (rx *Receiver) receiveData(dst []byte, d wire.Data) (out, msg []byte, delivered bool) {
	switch {
	case d.Rho.Equal(rx.rho):
		switch {
		case d.Tau.HasPrefix(rx.tauLast):
			// The transmitter extended the tag of the already-delivered
			// message (our ack was lost and it kept counting errors).
			// Adopt the extension and re-ack so it can reach OK; no
			// delivery (Figure 5's first branch).
			rx.tauLast = d.Tau
			dst = rx.AppendRetry(dst)
		case !d.Tau.IsPrefixOf(rx.tauLast):
			// Fresh tag unrelated to the last delivered one: this is the
			// next message. Deliver, remember its tag, restart counters
			// and draw a new challenge (Figure 5's second branch).
			msg, delivered = d.Msg, true
			rx.tauLast = d.Tau
			rx.k++
			rx.stats.Delivered++
			rx.t = 1
			rx.num = 0
			rx.iR = 1
			rx.rhoPrev = rx.rho
			rx.rho = rx.p.Source.Draw(rx.p.Size(1))
			dst = rx.AppendRetry(dst)
		default:
			// tau is a proper prefix of tauLast: a stale duplicate of a
			// packet we already processed. Ignore.
			rx.stats.Ignored++
		}

	case d.Rho.Len() == rx.rho.Len() && !d.Rho.IsPrefixOf(rx.rhoPrev):
		// Same-length wrong challenge that is not a late answer to the
		// previous exchange: count it; past bound(t), extend the
		// challenge so replayed history goes stale (Figure 5's third
		// branch).
		rx.num++
		rx.stats.ErrorsCounted++
		if rx.num >= rx.p.Bound(rx.t) {
			rx.t++
			rx.num = 0
			rx.rho = rx.rho.Concat(rx.p.Source.Draw(rx.p.Size(rx.t)))
			rx.stats.Extensions++
		}

	default:
		rx.stats.Ignored++
	}
	return dst, msg, delivered
}
