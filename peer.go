package ghm

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"ghm/internal/netlink"
)

// Role distinguishes the two ends of a full-duplex Peer link. The two
// ends must pick different roles (which end is which does not matter).
type Role int

const (
	// RoleA is one end of the link.
	RoleA Role = iota
	// RoleB is the other end.
	RoleB
)

var errPeerRole = errors.New("ghm: peer role must be RoleA or RoleB")

// Peer is a full-duplex reliable session: both ends Send and Recv over a
// single PacketConn, each direction independently carrying the protocol's
// ordered, exactly-once, crash-resilient guarantees.
type Peer struct {
	// A transmitting station on one engine endpoint and a receiving one on
	// the other: role A sends on the first id and receives on the second,
	// role B mirrors.
	s *netlink.Sender
	r *netlink.Receiver
	// closeLink closes the Endpoint, and with it the conn, when the peer
	// owns them (NewPeer); nil for a peer on a caller's Endpoint.
	closeLink func() error

	closeOnce sync.Once
}

// NewPeer starts a full-duplex session on conn. The remote end must call
// NewPeer on its endpoint with the other Role.
func NewPeer(conn PacketConn, role Role, opts ...Option) (*Peer, error) {
	// Slot 0 of an Endpoint the peer owns, so the far end may equally be
	// an Endpoint's Peer on slot 0; Close closes the Endpoint and conn.
	e := NewEndpoint(conn)
	p, err := e.Peer(0, role, opts...)
	if err != nil {
		e.Close()
		return nil, err
	}
	p.closeLink = e.Close
	return p, nil
}

// newPeer starts both directions; on failure it closes what it started.
func newPeer(sendConn, recvConn PacketConn, o options) (*Peer, error) {
	// One Params for both directions: a seeded source is shared.
	p := o.params()
	s, err := netlink.NewSender(sendConn, netlink.SenderConfig{Params: p})
	if err != nil {
		return nil, fmt.Errorf("ghm: %w", err)
	}
	r, err := netlink.NewReceiver(recvConn, netlink.ReceiverConfig{
		Params:          p,
		RetryInterval:   o.retryInterval,
		RetryBackoffMax: o.retryBackoff,
	})
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("ghm: %w", err)
	}
	return &Peer{s: s, r: r}, nil
}

// Send transfers msg to the other end and blocks until the protocol
// confirms delivery.
func (p *Peer) Send(ctx context.Context, msg []byte) error {
	return p.s.Send(ctx, msg)
}

// Recv blocks for the next message from the other end.
func (p *Peer) Recv(ctx context.Context) ([]byte, error) {
	return p.r.Recv(ctx)
}

// Crash simulates a host crash of this end: both directions' protocol
// memory is erased; a pending Send fails with ErrCrashed.
func (p *Peer) Crash() {
	p.s.Crash()
	p.r.Crash()
}

// Stats returns both directions' protocol counters.
func (p *Peer) Stats() (send SenderStats, recv ReceiverStats) {
	st := p.s.Stats()
	sr := p.r.Stats()
	return SenderStats{
			PacketsSent:   st.PacketsSent,
			Completed:     st.OKs,
			ErrorsCounted: st.ErrorsCounted,
			Extensions:    st.Extensions,
			Ignored:       st.Ignored,
		}, ReceiverStats{
			PacketsSent:   sr.PacketsSent,
			Delivered:     sr.Delivered,
			ErrorsCounted: sr.ErrorsCounted,
			Extensions:    sr.Extensions,
			Ignored:       sr.Ignored,
		}
}

// Close stops both directions and waits for their goroutines.
func (p *Peer) Close() error {
	p.closeOnce.Do(func() {
		if p.closeLink != nil {
			p.closeLink()
		}
		p.s.Close()
		p.r.Close()
	})
	return nil
}
