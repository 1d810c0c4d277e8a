package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// MaxWindow bounds the window depth: the slot id is a uvarint prefix on
// every packet and stays a single byte on the wire below 128; 64 is far
// past the point of diminishing returns (one window fills one RTT's worth
// of pipeline), and it bounds the lane count too (a lane is a slot).
const MaxWindow = 64

// ErrWindowFull is returned by WindowedTransmitter.SendMsg when every
// slot has a message in flight. The layer above (netlink.Sender)
// serializes admissions with slot tokens, so it never sees this; it
// exists for direct users of the state machine.
var ErrWindowFull = errors.New("core: window full")

// A window composes k independent instances of the paper's verified
// state machines — one per slot — behind a slot-framing layer: every
// packet on the wire carries a uvarint slot id prefix, and each slot
// runs its own challenge/response exchange with its own tags and
// challenges. Correctness per slot is exactly the single-machine
// argument (the slots share nothing but the link); what the window adds
// is the shared crash model — crash^T and crash^R erase every slot at
// once, the way a power cycle erases one station's whole memory — and
// that is what keeps the composition honest: there is no reachable
// state where some slots remember the past and others do not.
//
// This is the "bounded capacity" window of the self-stabilizing ARQ
// line of work (Dolev–Hanemann–Schiller–Sharma): at most k exchanges
// concurrently in flight, over a channel that may lose, duplicate and
// reorder, with per-slot freshness rather than per-window sequence
// numbers doing the work sequence numbers cannot do under crashes.

// Framed is the one rule that decides the window's format. The slot id
// ahead of every packet, and the epoch and admission number the station
// above puts ahead of every payload (ghm/internal/netlink), exist to tell
// slots apart and to restore order among them. A window of one slot has
// nothing to tell apart and nothing to reorder, so it writes neither: at
// depth 1 the packets are byte for byte the paper's, and a depth-1 window
// is the paper's station.
func Framed(window int) bool { return window > 1 }

// slotFrame is the frame a slot machine of a window-k station writes, in
// place, ahead of every packet it emits: the slot's uvarint id, or
// nothing when the window is not Framed.
func slotFrame(slot, k int) []byte {
	if !Framed(k) {
		return nil
	}
	return binary.AppendUvarint(nil, uint64(slot))
}

// unframeSlot splits a slot-framed packet; ok is false when the frame is
// malformed or names a slot outside [0, k). An unframed window's packets
// all belong to slot 0.
func unframeSlot(p []byte, k int) (int, []byte, bool) {
	if !Framed(k) {
		return 0, p, true
	}
	v, n := binary.Uvarint(p)
	if n <= 0 || v >= uint64(k) {
		return 0, nil, false
	}
	return int(v), p[n:], true
}

// WinTxOutput collects the output actions of one windowed-transmitter
// input event.
type WinTxOutput struct {
	// Packets are slot-framed DATA packets for the T->R channel (at most
	// one per event), freshly allocated.
	Packets [][]byte
	// OKs lists the slots whose in-flight message completed on this
	// event (at most one per inbound packet).
	OKs []int
}

// WindowedTransmitter is a k-deep sliding-window transmitter: k per-slot
// Transmitter state machines with a shared crash model. Methods must be
// called from one goroutine at a time; the type performs no locking or
// I/O of its own.
type WindowedTransmitter struct {
	k     int
	slots []*Transmitter
	// ignored counts window-level drops (malformed slot frames,
	// out-of-window slot ids); folded into Stats.
	ignored int
}

// NewWindowedTransmitter builds a window of `window` transmitter slots,
// each in its post-crash initial state.
func NewWindowedTransmitter(window int, p Params) (*WindowedTransmitter, error) {
	if window < 1 || window > MaxWindow {
		return nil, fmt.Errorf("core: window must be in [1, %d], got %d", MaxWindow, window)
	}
	w := &WindowedTransmitter{k: window}
	for i := 0; i < window; i++ {
		tx, err := NewTransmitter(p)
		if err != nil {
			return nil, err
		}
		tx.frame = slotFrame(i, window)
		w.slots = append(w.slots, tx)
	}
	return w, nil
}

// Window returns the window depth k.
func (w *WindowedTransmitter) Window() int { return w.k }

// InFlight returns the number of busy slots.
func (w *WindowedTransmitter) InFlight() int {
	n := 0
	for _, tx := range w.slots {
		if tx.Busy() {
			n++
		}
	}
	return n
}

// SlotBusy reports whether slot has a message in flight.
func (w *WindowedTransmitter) SlotBusy(slot int) bool {
	return slot >= 0 && slot < w.k && w.slots[slot].Busy()
}

// FreeSlot returns the lowest idle slot, or -1 when the window is full.
func (w *WindowedTransmitter) FreeSlot() int {
	for i, tx := range w.slots {
		if !tx.Busy() {
			return i
		}
	}
	return -1
}

// SendMsg is AppendSendMsg returning a freshly allocated packet.
func (w *WindowedTransmitter) SendMsg(slot int, msg []byte) (WinTxOutput, error) {
	pkt, err := w.AppendSendMsg(nil, slot, msg)
	return WinTxOutput{Packets: packets(pkt)}, err
}

// AppendSendMsg admits msg into the given slot (the paper's send_msg
// action on that slot's machine), appending the slot-framed DATA packet
// it emits, if any, to dst. It returns ErrBusy if the slot is occupied
// and ErrWindowFull if slot is negative (meaning "any slot") and none is
// free.
func (w *WindowedTransmitter) AppendSendMsg(dst []byte, slot int, msg []byte) ([]byte, error) {
	if slot < 0 {
		if slot = w.FreeSlot(); slot < 0 {
			return dst, ErrWindowFull
		}
	}
	if slot >= w.k {
		return dst, fmt.Errorf("core: slot %d out of window [0, %d)", slot, w.k)
	}
	return w.slots[slot].AppendSendMsg(dst, msg)
}

// ReceivePacket is AppendReceivePacket returning a freshly allocated
// packet.
func (w *WindowedTransmitter) ReceivePacket(p []byte) WinTxOutput {
	pkt, slot, _ := w.AppendReceivePacket(nil, p)
	out := WinTxOutput{Packets: packets(pkt)}
	if slot >= 0 {
		out.OKs = []int{slot}
	}
	return out
}

// AppendReceivePacket demultiplexes one slot-framed CTL packet to its
// slot machine, appending the slot-framed DATA packet it emits, if any,
// to dst; okSlot is the slot whose message completed, or -1, and vouched
// says whether the packet's tag vouches for it (see Transmitter's
// appendReceive). Malformed frames and out-of-window slot ids are ignored
// (the runtime substrate may hand us anything).
func (w *WindowedTransmitter) AppendReceivePacket(dst, p []byte) (out []byte, okSlot int, vouched bool) {
	slot, body, ok := unframeSlot(p, w.k)
	if !ok {
		w.ignored++
		return dst, -1, false
	}
	if out, ok, vouched = w.slots[slot].appendReceive(dst, body); !ok {
		slot = -1
	}
	return out, slot, vouched
}

// Crash models crash^T with the window's shared crash semantics: every
// slot's memory is erased at once. A crash can never wipe some slots and
// not others — the slots live in one station's memory.
func (w *WindowedTransmitter) Crash() {
	for _, tx := range w.slots {
		tx.Crash()
	}
	w.ignored = 0
}

// Completed returns the total OK count across slots since construction
// or the last crash.
func (w *WindowedTransmitter) Completed() int {
	n := 0
	for _, tx := range w.slots {
		n += tx.Completed()
	}
	return n
}

// Stats sums the per-slot counters; window-level frame drops count as
// Ignored.
func (w *WindowedTransmitter) Stats() TxStats {
	var st TxStats
	for _, tx := range w.slots {
		s := tx.Stats()
		st.PacketsSent += s.PacketsSent
		st.OKs += s.OKs
		st.ErrorsCounted += s.ErrorsCounted
		st.Extensions += s.Extensions
		st.Ignored += s.Ignored
	}
	st.Ignored += w.ignored
	return st
}

// SlotMsg is one windowed delivery: the slot it arrived on and the
// message handed to the higher layer.
type SlotMsg struct {
	Slot int
	Msg  []byte
}

// WinRxOutput collects the output actions of one windowed-receiver input
// event.
type WinRxOutput struct {
	// Delivered holds the receive_msg actions, tagged with their slot;
	// the messages are fresh copies.
	Delivered []SlotMsg
	// Packets are slot-framed CTL packets for the R->T channel, freshly
	// allocated.
	Packets [][]byte
}

// WindowedReceiver is the receiving half of a k-deep window: k per-slot
// Receiver state machines with a shared crash model. In-order release
// across slots is the runtime layer's job (netlink.Receiver resequences
// by the sender's admission number); this type only guarantees each
// slot's own exactly-once delivery.
type WindowedReceiver struct {
	k       int
	slots   []*Receiver
	ignored int
}

// NewWindowedReceiver builds a window of `window` receiver slots, each
// in its post-crash initial state.
func NewWindowedReceiver(window int, p Params) (*WindowedReceiver, error) {
	if window < 1 || window > MaxWindow {
		return nil, fmt.Errorf("core: window must be in [1, %d], got %d", MaxWindow, window)
	}
	w := &WindowedReceiver{k: window}
	for i := 0; i < window; i++ {
		rx, err := NewReceiver(p)
		if err != nil {
			return nil, err
		}
		rx.frame = slotFrame(i, window)
		w.slots = append(w.slots, rx)
	}
	return w, nil
}

// Window returns the window depth k.
func (w *WindowedReceiver) Window() int { return w.k }

// ReceivePacket is AppendReceivePacket returning a freshly allocated
// packet and a copy of the delivered message.
func (w *WindowedReceiver) ReceivePacket(p []byte) WinRxOutput {
	pkt, d, delivered := w.AppendReceivePacket(nil, p)
	out := WinRxOutput{Packets: packets(pkt)}
	if delivered {
		d.Msg = append([]byte(nil), d.Msg...)
		out.Delivered = []SlotMsg{d}
	}
	return out
}

// AppendReceivePacket demultiplexes one slot-framed DATA packet to its
// slot machine, appending the slot-framed CTL packet it emits, if any,
// to dst. When the event is a receive_msg action it reports delivered,
// with d.Msg aliasing p. Malformed frames and out-of-window slot ids are
// ignored.
func (w *WindowedReceiver) AppendReceivePacket(dst, p []byte) (out []byte, d SlotMsg, delivered bool) {
	slot, body, ok := unframeSlot(p, w.k)
	if !ok {
		w.ignored++
		return dst, d, false
	}
	d.Slot = slot
	out, d.Msg, delivered = w.slots[slot].AppendReceivePacket(dst, body)
	return out, d, delivered
}

// Retry fires the RETRY action on every slot, returning freshly allocated
// packets.
func (w *WindowedReceiver) Retry() WinRxOutput {
	_, pkts := w.AppendRetry(nil, nil, ^uint64(0))
	return WinRxOutput{Packets: pkts}
}

// AppendRetry fires the RETRY action on the slots whose bit is set in
// slots (bit i is slot i; MaxWindow fits a uint64, and bits past the
// window are ignored), appending their CTL packets back to back to dst, in
// slot order, and each packet, as a slice of the returned buffer, to pkts
// — one batch the runtime flushes with a single conn write per wheel
// firing. RETRY may fire at any time on any slot, so which slots a caller
// picks is pacing, not protocol.
func (w *WindowedReceiver) AppendRetry(dst []byte, pkts [][]byte, slots uint64) ([]byte, [][]byte) {
	if w.k < 64 {
		slots &= 1<<uint(w.k) - 1
	}
	// Grown once, to the whole batch: a later append must not move the
	// buffer from under the packets already sliced out of it.
	n := 0
	for s := slots; s != 0; s &= s - 1 {
		n += w.slots[bits.TrailingZeros64(s)].retrySize()
	}
	dst = slices.Grow(dst, n)
	for s := slots; s != 0; s &= s - 1 {
		start := len(dst)
		dst = w.slots[bits.TrailingZeros64(s)].AppendRetry(dst)
		pkts = append(pkts, dst[start:len(dst):len(dst)])
	}
	return dst, pkts
}

// Crash models crash^R with shared crash semantics: every slot's memory
// is erased at once.
func (w *WindowedReceiver) Crash() {
	for _, rx := range w.slots {
		rx.Crash()
	}
	w.ignored = 0
}

// Delivered returns the total receive_msg count across slots since
// construction or the last crash.
func (w *WindowedReceiver) Delivered() int {
	n := 0
	for _, rx := range w.slots {
		n += rx.Delivered()
	}
	return n
}

// Stats sums the per-slot counters; window-level frame drops count as
// Ignored.
func (w *WindowedReceiver) Stats() RxStats {
	var st RxStats
	for _, rx := range w.slots {
		s := rx.Stats()
		st.PacketsSent += s.PacketsSent
		st.Delivered += s.Delivered
		st.ErrorsCounted += s.ErrorsCounted
		st.Extensions += s.Extensions
		st.Ignored += s.Ignored
	}
	st.Ignored += w.ignored
	return st
}
