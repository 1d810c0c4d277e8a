package relay

import (
	"encoding/binary"
	"errors"
	"math/bits"

	"ghm/internal/netlink"
)

// frameData is the one frame kind: a payload from the first node of its
// route to the last. The destination's acks ride the hops' CTL packets
// (appendState), not frames.
//
// Kinds 1 and 2 were data and ack frames that named their endpoints in two
// bytes of their own, and kind 4 an ack frame that carried the
// destination's ledger back over a route. parseFrame refuses them as
// unknown kinds, so a frame from an older neighbour or an older forwarding
// WAL is dropped, not misread; the source's ack timeout re-dispatches its
// payload. Both ends of a link run the same build.
const frameData byte = 3

// maxRouteLen bounds the hop count a frame may carry; routes are node
// paths inside one mesh, so a byte is plenty.
const maxRouteLen = 255

// frame is one mesh-layer envelope. Every hop transfers the encoded
// frame as an opaque session payload; only relay nodes look inside.
//
// Wire layout (integers uvarint unless noted):
//
//	3 | id | attempt | routeLen(1B) | route... | payload
//
// Route is the full node path, first node to last (never popped), so any
// node can locate its successor without per-node state, and the frame's
// endpoints are its first and last bytes: a route has at least two.
type frame struct {
	ID      uint64
	Attempt uint32
	Route   []byte
	Payload []byte
}

func (f frame) src() byte { return f.Route[0] }
func (f frame) dst() byte { return f.Route[len(f.Route)-1] }

// key identifies one end-to-end transfer attempt; per-hop forwarding
// dedup keys on it so a session-level resubmission (the same attempt
// delivered twice by one hop) is suppressed while a deliberate
// re-dispatch (a new attempt, possibly over a route sharing this node)
// still propagates.
type key struct {
	src     byte
	dst     byte
	id      uint64
	attempt uint32
}

func (f frame) key() key { return key{src: f.src(), dst: f.dst(), id: f.ID, attempt: f.Attempt} }

// appendFrame encodes data frame f onto b append-style.
func appendFrame(b []byte, f frame) []byte {
	b = append(b, frameData)
	b = binary.AppendUvarint(b, f.ID)
	b = binary.AppendUvarint(b, uint64(f.Attempt))
	b = append(b, byte(len(f.Route)))
	b = append(b, f.Route...)
	return append(b, f.Payload...)
}

// ledgerSpan bounds how far above its watermark a ledger records ids: 64Ki
// ids, an 8 KiB bitmap. A source keeps its payloads' ids that close
// together unless one payload stays lost while tens of thousands behind it
// arrive; a frame further ahead is dropped (deliverLocal), and the source
// re-dispatches it once its ack timeout has let the gap close. Without the
// bound one frame's id would size the bitmap.
const ledgerSpan = 1 << 16

// idLedger is the destination's exactly-once ledger for one source. Ids
// are minted sequentially at the source, so "every id below low, and a
// bitmap of those above it" is exact and only as large as what is
// outstanding: it cannot forget old ids like a node's dedup window, and a
// set of every id ever delivered grows for ever. An ack is a copy of it
// (appendState), in the same layout.
type idLedger struct {
	low  uint64 // every id below is delivered, low itself is not
	bits []byte // bit i%8 of bits[i/8] is id low+1+i; no trailing zero byte
}

// beyond reports whether id is too far above the watermark to record.
func (l *idLedger) beyond(id uint64) bool { return id > l.low && id-l.low > ledgerSpan }

// add records id and reports whether it is new. An id beyond the span is
// not recorded, and reported as not new.
func (l *idLedger) add(id uint64) bool {
	if id < l.low || l.beyond(id) {
		return false
	}
	if id == l.low {
		moved, rest := passLow(l.bits)
		l.low, l.bits = l.low+moved, rest
		return true
	}
	i := id - l.low - 1
	if int(i/8) >= len(l.bits) {
		// The bitmap keeps its capacity as it shrinks: it reallocates only
		// to reach further above the watermark than it has before.
		l.bits = append(l.bits, make([]byte, int(i/8)+1-len(l.bits))...)
	}
	if l.bits[i/8]&(1<<(i%8)) != 0 {
		return false
	}
	l.bits[i/8] |= 1 << (i % 8)
	return true
}

// passLow moves a watermark whose own id has just been covered past it and
// every id the bitmap u covers directly above it. It returns how far the
// watermark moved and the bitmap for the new one: u's own bytes, moved
// down, trimmed of trailing zero bytes.
func passLow(u []byte) (moved uint64, rest []byte) {
	t := 0
	for t < len(u) && u[t] == 0xff {
		t++
	}
	s := 8 * t
	if t < len(u) {
		s += bits.TrailingZeros8(^u[t])
	}
	q, r := (s+1)/8, uint((s+1)%8)
	if q >= len(u) {
		return uint64(s) + 1, u[:0]
	}
	for i := 0; i+q < len(u); i++ {
		v := u[i+q] >> r
		if r != 0 && i+q+1 < len(u) {
			v |= u[i+q+1] << (8 - r)
		}
		u[i] = v
	}
	rest = u[:len(u)-q]
	for len(rest) > 0 && rest[len(rest)-1] == 0 {
		rest = rest[:len(rest)-1]
	}
	return uint64(s) + 1, rest
}

// What parseFrame rejects. A frame comes off the wire, so a malformed one
// costs its sender's victim nothing: the errors are made once.
var (
	errFrameShort   = errors.New("relay: frame too short")
	errFrameKind    = errors.New("relay: unknown frame kind")
	errFrameID      = errors.New("relay: truncated frame id")
	errFrameAttempt = errors.New("relay: bad frame attempt")
	errFrameRoute   = errors.New("relay: truncated route")
)

// parseFrame decodes one frame. The returned Route and Payload alias p.
func parseFrame(p []byte) (frame, error) {
	var f frame
	if len(p) < 1 {
		return f, errFrameShort
	}
	if p[0] != frameData {
		return f, errFrameKind
	}
	rest := p[1:]
	id, n := binary.Uvarint(rest)
	if n <= 0 {
		return f, errFrameID
	}
	rest = rest[n:]
	attempt, n := binary.Uvarint(rest)
	if n <= 0 || attempt > 1<<32-1 {
		return f, errFrameAttempt
	}
	f.ID, f.Attempt = id, uint32(attempt)
	rest = rest[n:]
	if len(rest) < 1 {
		return f, errFrameRoute
	}
	rl := int(rest[0])
	rest = rest[1:]
	if rl < 2 || len(rest) < rl {
		return f, errFrameRoute
	}
	f.Route, f.Payload = rest[:rl], rest[rl:]
	return f, nil
}

// appendState encodes a state of the destination's ledger onto b, as it
// rides the hops' CTL packets back to the source: uvarint(low) ‖ the
// bitmap (idLedger's layout), cut to what a CTL trailer's limit
// (netlink.MaxTrailer) leaves room for and trimmed of trailing zero bytes;
// ids the cap cuts off are acked by a later state. A later state covers
// every id an earlier one did, so a state lost, repeated or overtaken on
// the way costs nothing once a later one arrives, and the union of states
// the ledger reached (merge) covers only delivered ids.
func appendState(b []byte, low uint64, set []byte) []byte {
	set = set[:min(len(set), netlink.MaxTrailer-uvarintLen(low))]
	for len(set) > 0 && set[len(set)-1] == 0 {
		set = set[:len(set)-1]
	}
	return append(binary.AppendUvarint(b, low), set...)
}

// parseState decodes a state appendState wrote; set aliases p.
func parseState(p []byte) (low uint64, set []byte, ok bool) {
	low, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, false
	}
	return low, p[n:], true
}

// mergeAcks folds the state (low, set) into l, which becomes the union of
// the two, and reports whether l grew. A watermark past every id l holds
// above its own is taken at once; one inside them is reached id by id.
func (l *idLedger) mergeAcks(low uint64, set []byte) (grew bool) {
	if low > l.low && low-l.low > uint64(8*len(l.bits)) {
		l.low, l.bits, grew = low, l.bits[:0], true
	}
	for l.low < low {
		grew = l.add(l.low) || grew
	}
	for j, c := range set {
		for ; c != 0; c &= c - 1 {
			grew = l.add(low+1+uint64(8*j+bits.TrailingZeros8(c))) || grew
		}
	}
	return grew
}

// uvarintLen is the length of x's uvarint encoding: seven bits a byte.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }
