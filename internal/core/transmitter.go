package core

import (
	"errors"
	"slices"

	"ghm/internal/bitstr"
	"ghm/internal/wire"
)

// ErrBusy is returned by Transmitter.SendMsg when the previous message has
// neither been acknowledged (OK) nor wiped by a crash. The model's Axiom 1
// makes the higher layer responsible for this serialization.
var ErrBusy = errors.New("core: transmitter busy with previous message")

// TxOutput collects the output actions of one transmitter input event.
type TxOutput struct {
	// Packets are encoded DATA packets to place on the T->R channel (at
	// most one per event), freshly allocated.
	Packets [][]byte
	// OK reports that the current message completed (the paper's OK
	// action); the transmitter is ready for the next SendMsg.
	OK bool
}

// TxStats counts transmitter-side events since construction or the last
// crash. They feed the experiment harness; the protocol does not read them.
type TxStats struct {
	PacketsSent   int // DATA packets emitted
	OKs           int // completed messages
	ErrorsCounted int // same-length tag mismatches (num^T increments)
	Extensions    int // tag extensions (t^T increments)
	Ignored       int // packets dropped: malformed, stale, or idle-irrelevant
}

// Transmitter is the transmitting module (TM) of the protocol. Methods
// must be called from one goroutine at a time; the type performs no
// locking or I/O of its own.
type Transmitter struct {
	p     Params
	frame []byte // written ahead of every packet: empty, or a window's slot id

	busy bool   // a message is in flight
	msg  []byte // the in-flight message

	tau     bitstr.Str // tau^T: current tag (empty when never sent)
	tauPrev bitstr.Str // tag of the last completed transfer
	hasPrev bool       // tauPrev is known (false right after a crash)

	t   int    // t^T: extension level of tau
	num int    // num^T: same-length mismatches at the current level
	iT  uint64 // i^T: highest retry counter answered (Theorem 9's throttle)

	rho    bitstr.Str // receiver challenge to answer eagerly on SendMsg
	hasRho bool

	k     int // completed transfers (analysis only)
	stats TxStats
}

// NewTransmitter returns a transmitter in its post-crash initial state.
func NewTransmitter(p Params) (*Transmitter, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	tx := &Transmitter{p: p}
	tx.reset()
	return tx, nil
}

// reset erases all protocol state; it implements both construction and the
// crash^T action.
func (tx *Transmitter) reset() {
	tx.busy = false
	tx.msg = nil // a crash erases the message and gives its memory back
	tx.tau = bitstr.Empty()
	tx.tauPrev = bitstr.Empty()
	tx.hasPrev = false
	tx.t = 1
	tx.num = 0
	tx.iT = 0
	tx.rho = bitstr.Empty()
	tx.hasRho = false
}

// Crash models crash^T: the entire memory of the station is erased.
// Counters and statistics restart from the initial state.
func (tx *Transmitter) Crash() {
	tx.reset()
	tx.k = 0
	tx.stats = TxStats{}
}

// Busy reports whether a message is in flight (no OK or crash since the
// last SendMsg).
func (tx *Transmitter) Busy() bool { return tx.busy }

// Completed returns the number of OK events since construction or the last
// crash.
func (tx *Transmitter) Completed() int { return tx.k }

// TauLen returns the current tag length in bits (0 when idle and never
// sent). It feeds the storage experiments (E5).
func (tx *Transmitter) TauLen() int { return tx.tau.Len() }

// Level returns the current extension level t^T.
func (tx *Transmitter) Level() int { return tx.t }

// Stats returns a copy of the transmitter's event counters.
func (tx *Transmitter) Stats() TxStats { return tx.stats }

// maxKeptMsg caps the message buffer an idle transmitter keeps for its
// next SendMsg: one large message must not pin its memory for good.
const maxKeptMsg = 2048

// SendMsg is AppendSendMsg returning a freshly allocated packet, for
// callers that keep packets across events.
func (tx *Transmitter) SendMsg(m []byte) (out TxOutput, err error) {
	pkt, err := tx.AppendSendMsg(nil, m)
	out.Packets = packets(pkt)
	return out, err
}

// AppendSendMsg models the higher layer's send_msg(m) action. It draws a
// fresh tag for the transfer and, if a receiver challenge is already
// known, appends the first DATA packet to dst; it returns dst, extended
// or not. It returns ErrBusy if called before the previous message's OK
// (Axiom 1). The transmitter copies m.
func (tx *Transmitter) AppendSendMsg(dst, m []byte) ([]byte, error) {
	if tx.busy {
		return dst, ErrBusy
	}
	tx.busy = true
	tx.msg = tx.msg[:0]
	tx.msg = append(tx.msg, m...) // copy at the API boundary
	tx.t = 1
	tx.num = 0
	tx.tau = newTau(tx.p)

	if tx.hasRho {
		dst = tx.appendData(dst, tx.rho)
	}
	return dst, nil
}

// ReceivePacket is AppendReceivePacket returning a freshly allocated
// packet.
func (tx *Transmitter) ReceivePacket(p []byte) (out TxOutput) {
	pkt, ok := tx.AppendReceivePacket(nil, p)
	out.Packets, out.OK = packets(pkt), ok
	return out
}

// AppendReceivePacket models receive_pkt^{R->T}(p): it appends the DATA
// packet the event emits, if any, to dst and reports whether the current
// message completed (OK). Malformed packets are ignored: the channel
// model never corrupts packets, but the runtime substrate may hand us
// anything.
func (tx *Transmitter) AppendReceivePacket(dst, p []byte) (out []byte, ok bool) {
	out, ok, _ = tx.appendReceive(dst, p)
	return out, ok
}

// appendReceive is AppendReceivePacket that also reports whether the CTL
// vouches: its τ is the current tag (the OK) or the last completed one (a
// repeat of the last ack), values a blind sender hits with probability at
// most 2^−|τ|, so what rides a vouching CTL came from the receiver.
func (tx *Transmitter) appendReceive(dst, p []byte) (out []byte, ok, vouched bool) {
	ctl, err := wire.DecodeCtl(p)
	if err != nil {
		tx.stats.Ignored++
		return dst, false, false
	}
	return tx.receiveCtl(dst, ctl)
}

// packets wraps the packet one event appended to a nil dst (none when
// empty) the way the output structs carry it.
func packets(pkt []byte) [][]byte {
	if len(pkt) == 0 {
		return nil
	}
	// The wrappers' output header: callers of the non-append forms keep the
	// packets.
	return [][]byte{pkt}
}

func (tx *Transmitter) receiveCtl(dst []byte, ctl wire.Ctl) (out []byte, ok, vouched bool) {
	// Acknowledgement: the receiver echoes our current tag exactly. This
	// is checked before the freshness throttle - a duplicated ack is still
	// an ack, and tau is fresh randomness so old packets cannot carry it
	// (except with the probability the analysis budgets for).
	if tx.busy && ctl.Tau.Equal(tx.tau) {
		tx.busy = false
		if tx.msg = tx.msg[:0]; cap(tx.msg) > maxKeptMsg {
			tx.msg = nil
		}
		tx.tauPrev = tx.tau
		tx.hasPrev = true
		tx.rho = ctl.Rho
		tx.hasRho = true
		tx.iT = ctl.I
		tx.k++
		tx.stats.OKs++
		return dst, true, true
	}
	vouched = tx.hasPrev && ctl.Tau.Equal(tx.tauPrev)

	if !tx.busy {
		// Idle: the only packets of interest are duplicate acks of the
		// completed transfer; they may carry an extended challenge, which
		// we adopt so the next SendMsg answers the receiver's latest rho.
		if vouched {
			tx.rho = ctl.Rho
			tx.hasRho = true
			if ctl.I > tx.iT {
				tx.iT = ctl.I
			}
		} else {
			tx.stats.Ignored++
		}
		return dst, false, vouched
	}

	// Busy, not an ack: count adversarial-looking tags. A tag counts as an
	// error when it has exactly the current tag's length but a different
	// value, and is not the expected stale echo of the previous transfer
	// (the dual of Figure 5's "NOT prefix(rho, rho^R_{k-1})" exclusion).
	if ctl.Tau.Len() == tx.tau.Len() && !ctl.Tau.Equal(tx.tau) &&
		!(tx.hasPrev && ctl.Tau.IsPrefixOf(tx.tauPrev)) {
		tx.num++
		tx.stats.ErrorsCounted++
		if tx.num >= tx.p.Bound(tx.t) {
			tx.t++
			tx.num = 0
			tx.tau = tx.tau.Concat(tx.p.Source.Draw(tx.p.Size(tx.t)))
			tx.stats.Extensions++
		}
	}

	// Theorem 9's reply throttle: answer only challenges fresher than any
	// answered so far, so replayed CTL packets cannot trigger packet
	// storms and the stable phase sends a single packet value.
	if ctl.I > tx.iT {
		tx.iT = ctl.I
		tx.rho = ctl.Rho
		tx.hasRho = true
		dst = tx.appendData(dst, ctl.Rho)
	}
	return dst, false, vouched
}

func (tx *Transmitter) appendData(dst []byte, rho bitstr.Str) []byte {
	tx.stats.PacketsSent++
	var d wire.Data
	d.Msg, d.Rho, d.Tau = tx.msg, rho, tx.tau
	// Grown once, to the packet's size: a nil dst costs one allocation,
	// a pooled one none from its second packet on.
	dst = slices.Grow(dst, len(tx.frame)+d.Size())
	dst = append(dst, tx.frame...)
	return wire.AppendData(dst, d)
}
