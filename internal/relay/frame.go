package relay

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/bits"
)

// Frame kinds. Data frames carry a payload from the first node of their
// route to the last; ack frames carry the destination's exactly-once
// ledger for that source back to it, over the reverse of one route — the
// lowest-index usable one, the same for every ack, so acks meet in one hop
// outbox and fold into one another — not necessarily the route their
// payloads took (Mesh.ackRouteLocked).
//
// Kinds 1 and 2 were data and ack frames that named their endpoints in
// two bytes of their own and acked id by id. parseFrame refuses them as
// unknown kinds, so a frame from an older neighbour or an older forwarding
// WAL is dropped, not misread; the source's ack timeout re-dispatches its
// payload. Both ends of a link run the same build.
const (
	frameData byte = 3
	frameAck  byte = 4
)

// maxRouteLen bounds the hop count a frame may carry; routes are node
// paths inside one mesh, so a byte is plenty.
const maxRouteLen = 255

// frame is one mesh-layer envelope. Every hop transfers the encoded
// frame as an opaque session payload; only relay nodes look inside.
//
// Wire layout (integers uvarint unless noted):
//
//	data: 3 | id | attempt | routeLen(1B) | route... | payload
//	ack:  4 | routeLen(1B) | route... | low | bitmap
//
// Route is the full node path, first node to last (never popped), so any
// node can locate its successor without per-node state, and the frame's
// endpoints are its first and last bytes: a route has at least two.
//
// An ack is the state of the destination's ledger for the source it
// travels to (idLedger): every id below low is delivered, low is not, and
// bit b of bitmap byte j (least significant first) says whether id
// low+1+8j+b is. The bitmap has no trailing zero bytes, and the frame is
// at most maxAckRun bytes; ids the cap cuts off are acked by a later
// state. A later state covers every id an earlier one did, so an ack lost
// on the way costs nothing once the next one arrives, and a hop outbox
// folds an ack into the ack frame queued ahead of it for the same route as
// it is enqueued (mergeAcks).
type frame struct {
	Kind    byte
	ID      uint64 // data frames
	Attempt uint32 // data frames
	Route   []byte
	Payload []byte // data frames
	Low     uint64 // ack frames: the watermark
	Bits    []byte // ack frames: the ids delivered above Low
}

func (f frame) src() byte { return f.Route[0] }
func (f frame) dst() byte { return f.Route[len(f.Route)-1] }

// key identifies one end-to-end transfer attempt; per-hop forwarding
// dedup keys on it so a session-level resubmission (the same attempt
// delivered twice by one hop) is suppressed while a deliberate
// re-dispatch (a new attempt, possibly over a route sharing this node)
// still propagates. Only data frames are looked up by it: an ack sent
// again after a hop crash may carry a later state than the one already
// forwarded, and suppressing it would lose the ids it gained.
type key struct {
	kind    byte
	src     byte
	dst     byte
	id      uint64
	attempt uint32
}

func (f frame) key() key {
	return key{kind: f.Kind, src: f.src(), dst: f.dst(), id: f.ID, attempt: f.Attempt}
}

// appendFrame encodes data frame f onto b append-style.
func appendFrame(b []byte, f frame) []byte {
	b = append(b, frameData)
	b = binary.AppendUvarint(b, f.ID)
	b = binary.AppendUvarint(b, uint64(f.Attempt))
	b = append(b, byte(len(f.Route)))
	b = append(b, f.Route...)
	return append(b, f.Payload...)
}

// appendAck encodes the state of ledger l as an ack frame onto b: route —
// a path from l's source to the destination — written backwards, then l's
// watermark and as much of its bitmap as maxAckRun leaves room for.
func appendAck(b []byte, route []byte, l *idLedger) []byte {
	start := len(b)
	b = append(b, frameAck, byte(len(route)))
	for i := len(route) - 1; i >= 0; i-- {
		b = append(b, route[i])
	}
	b = binary.AppendUvarint(b, l.low)
	bm := l.bits[:min(len(l.bits), max(maxAckRun-(len(b)-start), 0))]
	for len(bm) > 0 && bm[len(bm)-1] == 0 {
		bm = bm[:len(bm)-1]
	}
	return append(b, bm...)
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
// set of every id ever delivered grows for ever. An ack frame is a copy of
// it (appendAck), in the same layout.
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
	errFrameLow     = errors.New("relay: truncated ack watermark")
)

// parseFrame decodes one frame. The returned Route, Payload and Bits alias
// p.
func parseFrame(p []byte) (frame, error) {
	var f frame
	if len(p) < 1 {
		return f, errFrameShort
	}
	f.Kind = p[0]
	rest := p[1:]
	switch f.Kind {
	case frameData:
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
	case frameAck:
	default:
		return f, errFrameKind
	}
	if len(rest) < 1 {
		return f, errFrameRoute
	}
	rl := int(rest[0])
	rest = rest[1:]
	if rl < 2 || len(rest) < rl {
		return f, errFrameRoute
	}
	f.Route, rest = rest[:rl], rest[rl:]
	if f.Kind == frameData {
		f.Payload = rest
		return f, nil
	}
	low, n := binary.Uvarint(rest)
	if n <= 0 {
		return f, errFrameLow
	}
	f.Low, f.Bits = low, rest[n:]
	return f, nil
}

// maxAckRun bounds an ack frame in bytes: with a three-node route and a
// three-byte watermark, a bitmap of 248 bytes, the 1 984 ids above the
// watermark; well inside what one station message carries as cheaply as a
// short one.
const maxAckRun = 256

// mergeAcks is every hop outbox's Merge: two ack frames over the same
// route become one that covers every id either covers — the larger
// watermark, and the union of the ids above it — re-encoded into run, and
// capped at maxAckRun like the destination's own acks. Anything else — a
// data frame, another route, a frame that does not parse, a route too long
// to leave room for a watermark — is refused with run untouched, and
// leaves as a message of its own.
func mergeAcks(run, next []byte) ([]byte, bool) {
	a, err := parseFrame(run)
	if err != nil || a.Kind != frameAck {
		return run, false
	}
	b, err := parseFrame(next)
	if err != nil || b.Kind != frameAck || !bytes.Equal(a.Route, b.Route) {
		return run, false
	}
	hdr := 2 + len(a.Route)
	if hdr+binary.MaxVarintLen64 > maxAckRun {
		return run, false
	}
	hi, lo := a, b
	if lo.Low > hi.Low {
		hi, lo = lo, hi
	}
	// The union, bit i of u being id low+1+i, built on the stack: either
	// frame's bitmap may alias run, which is rewritten below.
	var u [maxAckRun]byte
	low, n := hi.Low, copy(u[:], hi.Bits)
	coversLow := false
	if lo.Low+uint64(8*len(lo.Bits)) >= low { // else every id lo has above its own watermark is below low
		for j, c := range lo.Bits {
			for ; c != 0; c &= c - 1 {
				id := lo.Low + 1 + uint64(8*j+bits.TrailingZeros8(c))
				switch {
				case id == low:
					coversLow = true
				case id > low && id-low-1 < 8*maxAckRun:
					i := id - low - 1
					u[i/8] |= 1 << (i % 8)
					n = max(n, int(i/8)+1)
				}
			}
		}
	}
	if coversLow {
		// lo had hi's watermark: the union's is past it.
		moved, rest := passLow(u[:n])
		low, n = low+moved, len(rest)
	}
	n = min(n, maxAckRun-hdr-uvarintLen(low))
	for n > 0 && u[n-1] == 0 {
		n--
	}
	run = binary.AppendUvarint(run[:hdr], low)
	return append(run, u[:n]...), true
}

// uvarintLen is the length of x's uvarint encoding: seven bits a byte.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }
