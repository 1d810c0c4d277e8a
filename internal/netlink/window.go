package netlink

import (
	"encoding/binary"

	"ghm/internal/core"
)

// This file holds what a station of depth k >= 2 carries on top of the
// protocol machines: the admission frame and the sender's half of the
// in-order release. A depth-1 station uses none of it (core.Framed): it
// has one slot, so nothing completes out of order and nothing needs a
// number.
//
// Three pieces of runtime memory sit above the protocol machines and
// survive protocol crashes (a crash erases a station's *protocol* state;
// the process hosting it keeps running):
//
//   - an admission sequence number, uvarint-framed into each payload
//     together with the sender incarnation's epoch, by which the receiver
//     releases deliveries in order (and detects a rebuilt sender whose
//     seqs restart — see SenderConfig.Epoch);
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
// — an abandoned hole stalls release at its seq forever. ghm.Session
// provides that resubmission automatically, and a windowed ghm.Sender
// leaves it to its caller.

// appendSeqFrame appends msg to dst behind the sender incarnation's epoch
// and the payload's admission seq.
func appendSeqFrame(dst []byte, epoch, seq uint64, msg []byte) []byte {
	dst = binary.AppendUvarint(dst, epoch)
	dst = binary.AppendUvarint(dst, seq)
	return append(dst, msg...)
}

// unframeSeq splits an epoch+seq-framed payload; msg aliases p.
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

// windowReleaseBound returns the largest in-order release burst one
// accepted packet can produce on a window-k receiver: the gap-filling
// delivery plus every consecutively parked successor. It is also the
// span bound — how far the sender lets admission seqs run ahead of the
// lowest unconfirmed one (admitSeq) — and the two are one number for a
// reason: the receiver parks only seqs inside the sender's span, so its
// parked set stays under its hold mark of this size, and its buffer
// always has room for the packet that fills the gap.
// A depth-1 station releases what it delivers, one message per packet.
func windowReleaseBound(window int) int {
	if !core.Framed(window) {
		return 1
	}
	return window * deliveryBuffer
}

// admitSeq picks msg's admission seq, or returns a channel to wait on
// when the span bound holds the admission back. Call with s.mu held.
//
// A payload byte-identical to a wiped one reclaims the lowest wiped seq:
// identical payloads are interchangeable for correctness, but
// lowest-first lets a caller resubmitting sequentially in admission
// order (the outbox's pattern) see each release before issuing the next
// attempt, instead of parking the early ones behind a seq still unsent.
//
// A fresh seq is minted only within windowReleaseBound of the lowest seq
// not yet confirmed (in flight, or wiped and awaiting resubmission).
// Without the bound, one slot waiting out a retry interval while the
// others keep completing lets the receiver's parked set grow to its hold
// mark, and every slot that delivers then has its ack held until the one
// slot's retry fills the gap. With it the parked set stays below the
// receiver's mark, so parking alone never holds an ack and the gap filler
// is always accepted. A reclaimed seq was inside the span when minted and
// the span only moves up, so reclaiming never waits.
func (s *Sender) admitSeq(msg []byte) (seq uint64, wait <-chan struct{}) {
	if seqs := s.wiped[string(msg)]; len(seqs) > 0 {
		mi := 0
		for j, q := range seqs {
			if q < seqs[mi] {
				mi = j
			}
		}
		seq = seqs[mi]
		if len(seqs) == 1 {
			delete(s.wiped, string(msg))
		} else {
			s.wiped[string(msg)] = append(seqs[:mi], seqs[mi+1:]...)
		}
		return seq, nil
	}
	low := s.nextSeq
	for i, q := range s.slotSeq {
		if s.wt.SlotBusy(i) && q < low {
			low = q
		}
	}
	for _, seqs := range s.wiped {
		for _, q := range seqs {
			if q < low {
				low = q
			}
		}
	}
	if s.nextSeq-low >= uint64(windowReleaseBound(s.k)) {
		if s.spanWait == nil {
			s.spanWait = make(chan struct{})
		}
		return 0, s.spanWait
	}
	s.nextSeq++
	return s.nextSeq - 1, nil
}

// The windowed station's old names, kept as aliases of the one station
// for bench/ladder.go's netlink.windowed_k1 rung: bench/ is frozen between
// benchmark PRs. Nothing else may use them; the next benchmark PR retires
// the rung and these four lines with it.
type (
	WindowedSenderConfig   = SenderConfig
	WindowedReceiverConfig = ReceiverConfig
)

var (
	NewWindowedSender   = NewSender
	NewWindowedReceiver = NewReceiver
)
