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
// spawning private recvLoops. The engine is protocol-agnostic, so the
// netlink error semantics — ErrClosed identity and the
// closed-vs-transient split — are injected here.

// engineBacked is implemented by conn types that are views over an
// engine endpoint (SharedConn views). Stations detect it and reuse that
// engine's pump instead of wrapping the view in another one.
type engineBacked interface {
	engineEndpoint() *engine.Endpoint
}

// engineConfig carries netlink's error semantics into an engine.
func engineConfig(reg *metrics.Registry, raw bool, maxEndpoints int) engine.Config {
	return engine.Config{
		Raw:            raw,
		MaxEndpoints:   maxEndpoints,
		ClosedErr:      ErrClosed,
		IsFatal:        isClosedErr,
		TransientDelay: transientIODelay,
		Metrics:        reg,
	}
}

// NewEngine builds a framed engine over conn with endpoint ids
// [0, maxEndpoints) and this package's error semantics. The engine owns
// conn; closing the engine closes it. reg receives the engine's link.*
// drop counters (nil uses metrics.Default()). wheel is the engine's timer
// wheel, and therefore its clock (nil: engine.DefaultWheel()); layers that
// own several engines — the relay mesh — share one wheel so a single
// injected clock virtualizes them all.
func NewEngine(conn PacketConn, maxEndpoints int, reg *metrics.Registry, wheel *engine.Wheel) *engine.Engine {
	c := engineConfig(reg, false, maxEndpoints)
	c.Wheel = wheel
	return engine.New(conn, c)
}

// stationIO is a station's attachment to the runtime: the endpoint it
// sends and receives through, and the close action matching the conn's
// documented lifetime semantics (detach for views and bare endpoints,
// full engine close for a privately owned conn).
type stationIO struct {
	ep    *engine.Endpoint
	close func() error
}

// clock returns the station's time source — the clock under its
// endpoint's wheel — so injecting a clock at the engine/wheel layer
// virtualizes every timestamp the station takes.
func (io stationIO) clock() clock.Clock { return io.ep.Wheel().Clock() }

// stationEndpoint resolves conn to its engine endpoint. Conns already
// backed by an engine reuse its pump; a bare engine endpoint is used
// directly; any other conn gets a private raw engine — so every physical
// conn ends up with exactly one read pump regardless of how many
// stations or sessions sit above it.
func stationEndpoint(conn PacketConn, reg *metrics.Registry) stationIO {
	switch c := conn.(type) {
	case engineBacked:
		return stationIO{ep: c.engineEndpoint(), close: conn.Close}
	case *engine.Endpoint:
		return stationIO{ep: c, close: conn.Close}
	default:
		eng := engine.New(conn, engineConfig(reg, true, 1))
		ep, _ := eng.Endpoint(0)
		return stationIO{ep: ep, close: eng.Close}
	}
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

// transmitBatch is transmit for the round that emits one packet per window
// slot: batch holds the packets, slices of what the round appended to
// *buf, and leaves in one batched conn call.
func (io stationIO) transmitBatch(buf *[]byte, pkts []byte, batch [][]byte) {
	_ = io.ep.SendBatch(batch)
	*buf = pkts[:0]
	packetPool.Put(buf)
}
