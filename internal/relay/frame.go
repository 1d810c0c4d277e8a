package relay

import (
	"bytes"
	"encoding/binary"
	"errors"
)

// Frame kinds. Data frames carry a payload from Src toward Dst along
// Route; ack frames confirm one or more (Src, ID) end to end, travelling
// back to the original source over the reverse of one route — the
// lowest-index usable one, the same for every ack, so acks meet in one
// hop outbox and go as runs — not necessarily the route their payload
// took (Mesh.ackRouteLocked).
const (
	frameData byte = 1
	frameAck  byte = 2
)

// maxRouteLen bounds the hop count a frame may carry; routes are node
// paths inside one mesh, so a byte is plenty.
const maxRouteLen = 255

// frame is one mesh-layer envelope. Every hop transfers the encoded
// frame as an opaque session payload; only relay nodes look inside.
//
// Wire layout (all integers uvarint unless noted):
//
//	kind(1B) | src(1B) | dst(1B) | id | attempt | routeLen(1B) | route... | payload
//
// Route is the full node path source..destination (never popped), so any
// node can locate its successor without per-node state.
//
// An ack frame has no payload. What follows its route is a tail of zero
// or more further (id, attempt) pairs, the ids it confirms besides ID:
//
//	2 | src | dst | id | attempt | routeLen | route... | (id | attempt)*
//
// The destination writes every ack with an empty tail; a hop outbox folds
// an ack into the ack frame queued ahead of it for the same route as it is
// enqueued (mergeAcks), and a relay forwards that frame whole.
type frame struct {
	Kind    byte
	Src     byte
	Dst     byte
	ID      uint64
	Attempt uint32
	Route   []byte
	Payload []byte
}

// key identifies one end-to-end transfer attempt; per-hop forwarding
// dedup keys on it so a session-level resubmission (the same attempt
// delivered twice by one hop) is suppressed while a deliberate
// re-dispatch (a new attempt, possibly over a route sharing this node)
// still propagates. Only data frames are looked up by it: a run of acks
// formed again after a hop crash may be longer than the one already
// forwarded, and suppressing it by its first id would lose the ids it
// gained.
type key struct {
	kind    byte
	src     byte
	dst     byte
	id      uint64
	attempt uint32
}

func (f frame) key() key {
	var k key
	k.kind, k.src, k.dst, k.id, k.attempt = f.Kind, f.Src, f.Dst, f.ID, f.Attempt
	return k
}

// appendFrame encodes f onto b append-style.
func appendFrame(b []byte, f frame) []byte {
	b = appendHeader(b, f.Kind, f.Src, f.Dst, f.ID, f.Attempt, len(f.Route))
	b = append(b, f.Route...)
	b = append(b, f.Payload...)
	return b
}

// appendAck encodes the end-to-end ack of data frame f onto b: the same id
// and attempt, the endpoints swapped, and route — a path from f's source
// to its destination — written backwards.
func appendAck(b []byte, f frame, route []byte) []byte {
	b = appendHeader(b, frameAck, f.Dst, f.Src, f.ID, f.Attempt, len(route))
	for i := len(route) - 1; i >= 0; i-- {
		b = append(b, route[i])
	}
	return b
}

func appendHeader(b []byte, kind, src, dst byte, id uint64, attempt uint32, routeLen int) []byte {
	b = append(b, kind, src, dst)
	b = binary.AppendUvarint(b, id)
	b = binary.AppendUvarint(b, uint64(attempt))
	b = append(b, byte(routeLen))
	return b
}

// idLedger is the destination's exactly-once ledger for one source. Ids
// are minted sequentially at the source, so "everything below low, plus
// the sparse set at or above it" is exact and only as large as what is
// outstanding: it cannot forget old keys like a node's dedup window, and a
// set of every id ever delivered grows for ever.
type idLedger struct {
	low   uint64
	above map[uint64]struct{}
}

// add records id and reports whether it is new.
func (l *idLedger) add(id uint64) bool {
	if _, dup := l.above[id]; dup || id < l.low {
		return false
	}
	if id != l.low {
		if l.above == nil {
			// A source's first out-of-order id: its sparse set is made once.
			l.above = make(map[uint64]struct{})
		}
		l.above[id] = struct{}{}
		return true
	}
	for l.low++; len(l.above) > 0; l.low++ {
		if _, ok := l.above[l.low]; !ok {
			break
		}
		delete(l.above, l.low)
	}
	return true
}

// What parseFrame rejects. A frame comes off the wire, so a malformed one
// costs its sender's victim nothing: the errors are made once.
var (
	errFrameShort   = errors.New("relay: frame too short")
	errFrameKind    = errors.New("relay: unknown frame kind")
	errFrameID      = errors.New("relay: truncated frame id")
	errFrameAttempt = errors.New("relay: bad frame attempt")
	errFrameRoute   = errors.New("relay: truncated route")
	errFrameTail    = errors.New("relay: bad ack tail")
)

// parseFrame decodes one frame. The returned Route and Payload alias p. An
// ack's Payload is its tail, checked here to be whole pairs, so the walk
// with nextAck cannot fail.
func parseFrame(p []byte) (frame, error) {
	var f frame
	if len(p) < 3 {
		return f, errFrameShort
	}
	f.Kind, f.Src, f.Dst = p[0], p[1], p[2]
	if f.Kind != frameData && f.Kind != frameAck {
		return f, errFrameKind
	}
	rest := p[3:]
	id, n := binary.Uvarint(rest)
	if n <= 0 {
		return f, errFrameID
	}
	rest = rest[n:]
	attempt, n := binary.Uvarint(rest)
	if n <= 0 || attempt > 1<<32-1 {
		return f, errFrameAttempt
	}
	rest = rest[n:]
	if len(rest) < 1 {
		return f, errFrameRoute
	}
	rl := int(rest[0])
	rest = rest[1:]
	if len(rest) < rl {
		return f, errFrameRoute
	}
	f.ID = id
	f.Attempt = uint32(attempt)
	f.Route = rest[:rl]
	f.Payload = rest[rl:]
	if f.Kind == frameAck {
		for tail, ok := f.Payload, true; len(tail) > 0; {
			if _, _, tail, ok = nextAck(tail); !ok {
				return f, errFrameTail
			}
		}
	}
	return f, nil
}

// nextAck takes one (id, attempt) pair off an ack frame's tail; ok is
// false where the tail is malformed, which parseFrame has ruled out for
// the tail of a frame it returned.
func nextAck(tail []byte) (id uint64, attempt uint32, rest []byte, ok bool) {
	id, n := binary.Uvarint(tail)
	if n <= 0 {
		return 0, 0, nil, false
	}
	a, m := binary.Uvarint(tail[n:])
	if m <= 0 || a > 1<<32-1 {
		return 0, 0, nil, false
	}
	return id, uint32(a), tail[n+m:], true
}

// maxAckRun bounds a merged ack frame in bytes: sixty-odd ids once an id
// takes three bytes, sixteen at the widest, and well inside what one
// station message carries as cheaply as a lone ack.
const maxAckRun = 256

// mergeAcks is every hop outbox's Merge: two ack frames for the same
// source over the same route become one, next's pair and tail appended
// to run. Anything else — a data frame, another route, a frame that does
// not parse, a run that would pass maxAckRun — is refused with run
// untouched, and leaves as a message of its own.
func mergeAcks(run, next []byte) ([]byte, bool) {
	a, err := parseFrame(run)
	if err != nil || a.Kind != frameAck {
		return run, false
	}
	b, err := parseFrame(next)
	if err != nil || b.Kind != frameAck || a.Src != b.Src || a.Dst != b.Dst || !bytes.Equal(a.Route, b.Route) {
		return run, false
	}
	// next's own pair sits between its endpoints and its route length.
	pair := next[3 : len(next)-len(b.Payload)-len(b.Route)-1]
	if len(run)+len(pair)+len(b.Payload) > maxAckRun {
		return run, false
	}
	run = append(run, pair...)
	run = append(run, b.Payload...)
	return run, true
}
