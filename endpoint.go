package ghm

import (
	"fmt"

	"ghm/internal/engine"
)

// MaxEndpointSlots is the number of independent slots an Endpoint hosts.
// Slot ids stay a single byte on the wire.
const MaxEndpointSlots = 64

// Endpoint hosts many independent protocol instances — Senders,
// Receivers, Peers, supervised Sessions — on one PacketConn, with a
// bounded goroutine count: one read pump for the whole socket, however
// many instances attach. This is the shape a large deployment has (the
// paper defines the protocol per transmitter/receiver pair and leaves
// scaling to the layers above; the engine underneath multiplexes the
// pairs over shared unreliable channels).
//
// Both ends of the link build an Endpoint on their conn and attach
// matching slots: a Sender on slot k talks to a Receiver on slot k of
// the far end, a Peer on slot k to a Peer on slot k with the other
// Role, a Session on slot k to a Receiver on slot k. Slots are
// independent: each carries the protocol's full per-message guarantees.
//
// Attaching a slot again replaces the previous attachment (inbound
// routing moves to the new instance — the semantics Share's views have),
// which is also how Session rebuilds station incarnations through the
// endpoint. Closing an attached instance frees its slot without
// touching the conn; closing the Endpoint closes the conn and unblocks
// every instance.
type Endpoint struct {
	eng *engine.Engine
}

// NewEndpoint builds an endpoint over conn. The endpoint owns conn:
// Endpoint.Close closes it.
func NewEndpoint(conn PacketConn) *Endpoint {
	// Two engine ids per slot: one per direction, so a slot can host a
	// full-duplex Peer. Single-direction instances use the slot's first
	// id. All ids stay below 128 and therefore one byte on the wire.
	return &Endpoint{eng: engine.New(conn, engine.Config{MaxEndpoints: 2 * MaxEndpointSlots})}
}

func checkSlot(slot int) error {
	if slot < 0 || slot >= MaxEndpointSlots {
		return fmt.Errorf("ghm: endpoint slot %d out of range [0, %d)", slot, MaxEndpointSlots)
	}
	return nil
}

// slotConn attaches (or re-attaches) one directional id of a slot.
func (e *Endpoint) slotConn(id int) (PacketConn, error) {
	ep, err := e.eng.Endpoint(id)
	if err != nil {
		return nil, fmt.Errorf("ghm: endpoint: %w", err)
	}
	return ep, nil
}

// Sender attaches a transmitting station to slot; the far end attaches
// a Receiver (or Session target) to the same slot.
func (e *Endpoint) Sender(slot int, opts ...Option) (*Sender, error) {
	if err := checkSlot(slot); err != nil {
		return nil, err
	}
	conn, err := e.slotConn(2 * slot)
	if err != nil {
		return nil, err
	}
	return NewSender(conn, opts...)
}

// Receiver attaches a receiving station to slot.
func (e *Endpoint) Receiver(slot int, opts ...Option) (*Receiver, error) {
	if err := checkSlot(slot); err != nil {
		return nil, err
	}
	conn, err := e.slotConn(2 * slot)
	if err != nil {
		return nil, err
	}
	return NewReceiver(conn, opts...)
}

// Peer attaches a full-duplex peer to slot. The far end attaches a Peer
// to the same slot with the other Role.
func (e *Endpoint) Peer(slot int, role Role, opts ...Option) (*Peer, error) {
	if err := checkSlot(slot); err != nil {
		return nil, err
	}
	if role != RoleA && role != RoleB {
		return nil, errPeerRole
	}
	// Role A transmits on the slot's first id and receives on the
	// second; role B mirrors. The peer borrows the slot: Close detaches
	// its stations and leaves the link up.
	sendConn, err := e.slotConn(2*slot + int(role))
	if err != nil {
		return nil, err
	}
	recvConn, err := e.slotConn(2*slot + 1 - int(role))
	if err != nil {
		return nil, err
	}
	return newPeer(sendConn, recvConn, applyOptions(opts))
}

// Session starts a supervised self-healing session on slot: every
// station incarnation the supervisor builds attaches through the
// endpoint (re-registering the slot, exactly like Share's attach views,
// but without a dedicated pump). cfg.Dial must be nil — the endpoint is
// the transport.
func (e *Endpoint) Session(slot int, cfg SessionConfig) (*Session, error) {
	if err := checkSlot(slot); err != nil {
		return nil, err
	}
	if cfg.Dial != nil {
		return nil, fmt.Errorf("ghm: endpoint session: Dial must be nil (the endpoint provides the transport)")
	}
	cfg.Dial = func() (PacketConn, error) { return e.slotConn(2 * slot) }
	return NewSession(cfg)
}

// Close closes the underlying conn, stops the pump and unblocks every
// attached instance with ErrClosed.
func (e *Endpoint) Close() error { return e.eng.Close() }
