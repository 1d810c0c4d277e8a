package netlink

import (
	"sync"

	"ghm/internal/clock"
	"ghm/internal/engine"
	"ghm/internal/metrics"
)

// This file wires the netlink layer onto the runtime engine
// (ghm/internal/engine): every physical conn gets exactly one read pump,
// owned by an Engine, and stations attach as engine endpoints instead of
// spawning private recvLoops.

// stationIO is a station's attachment to the runtime: the endpoint it
// sends and receives through, and the close action matching the conn's
// documented lifetime semantics (detach for an engine endpoint, full
// engine close for a privately owned conn).
type stationIO struct {
	ep    *engine.Endpoint
	close func() error
}

// clock returns the station's time source — the clock under its
// endpoint's wheel — so injecting a clock at the engine/wheel layer
// virtualizes every timestamp the station takes.
func (io stationIO) clock() clock.Clock { return io.ep.Wheel().Clock() }

// stationEndpoint resolves conn to its engine endpoint. An engine
// endpoint — a SharedConn attachment, a slot of a framed engine — is used
// directly, riding its engine's pump; any other conn gets a private raw
// engine — so every physical conn ends up with exactly one read pump
// regardless of how many stations or sessions sit above it.
func stationEndpoint(conn PacketConn, reg *metrics.Registry) stationIO {
	if ep, ok := conn.(*engine.Endpoint); ok {
		return stationIO{ep: ep, close: ep.Close}
	}
	eng := engine.New(conn, engine.Config{Raw: true, Metrics: reg})
	ep, _ := eng.Endpoint(0)
	return stationIO{ep: ep, close: eng.Close}
}

// packetPool recycles the buffers the stations have their protocol
// machines encode outgoing packets into. A buffer belongs to one
// protocol round: taken for the round, filled under the station lock,
// written on the conn outside it (PacketConn.Send must not retain its
// argument), then returned. It is never stored on the station — a Crash
// followed by a new Send can run while the pump is still writing the
// previous round's reply — and it starts empty, growing to the packets
// it carries.
var packetPool = sync.Pool{New: func() any { return new([]byte) }}

func getPacketBuf() *[]byte { return packetPool.Get().(*[]byte) }

// transmit ends a protocol round: it sends pkt — what the round appended
// to *buf, possibly nothing — and returns buf, with the capacity pkt grew
// to, to the pool. A send error is dropped: a transient one (UDP
// ECONNREFUSED while the peer host is down — exactly the crash scenario
// the protocol exists for) is the loss the protocol is built to tolerate,
// and after a permanent one there is nobody to tell: the station learns
// of a dead conn from its endpoint.
func (io stationIO) transmit(buf *[]byte, pkt []byte) {
	if len(pkt) > 0 {
		_ = io.ep.Send(pkt)
	}
	*buf = pkt[:0]
	packetPool.Put(buf)
}
