package netlink

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
)

// maxUDPPacket bounds received datagrams. Protocol packets are a few
// hundred bytes plus the message body; 64 KiB is UDP's own ceiling.
const maxUDPPacket = 64 * 1024

// UDPConn adapts a UDP socket to PacketConn. UDP is exactly the channel
// the paper models: datagrams may be lost, duplicated and reordered, but
// the checksum makes corruption appear as loss, preserving causality.
type UDPConn struct {
	conn *net.UDPConn
	peer *net.UDPAddr
	from netip.AddrPort // peer as Recv compares it: the address unmapped
	lent []byte         // Recv's result, grown to the largest datagram seen
}

var _ PacketConn = (*UDPConn)(nil)

// DialUDP binds laddr and sends to raddr. Either station of a link can be
// brought up first; packets sent before the peer listens are simply lost,
// which the protocol tolerates.
func DialUDP(laddr, raddr string) (*UDPConn, error) {
	local, err := net.ResolveUDPAddr("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("netlink: resolve local %q: %w", laddr, err)
	}
	remote, err := net.ResolveUDPAddr("udp", raddr)
	if err != nil {
		return nil, fmt.Errorf("netlink: resolve remote %q: %w", raddr, err)
	}
	conn, err := net.ListenUDP("udp", local)
	if err != nil {
		return nil, fmt.Errorf("netlink: listen %q: %w", laddr, err)
	}
	return NewUDPConn(conn, remote), nil
}

// NewUDPConn wraps an already-bound socket talking to peer. It exists for
// callers that need to bind both stations before either knows the other's
// ephemeral port.
func NewUDPConn(conn *net.UDPConn, peer *net.UDPAddr) *UDPConn {
	ap := peer.AddrPort()
	return &UDPConn{conn: conn, peer: peer, from: netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())}
}

// fromPeer reports whether a datagram's source is the configured peer:
// the same address and, when the peer was given with a port, the same
// port. A peer with an unspecified (or no) address accepts any source.
func (u *UDPConn) fromPeer(from netip.AddrPort) bool {
	ip := u.from.Addr()
	if !ip.IsValid() || ip.IsUnspecified() {
		return true
	}
	if from.Addr().Unmap() != ip {
		return false
	}
	return u.from.Port() == 0 || from.Port() == u.from.Port()
}

// LocalAddr returns the bound address (useful when laddr used port 0).
func (u *UDPConn) LocalAddr() net.Addr { return u.conn.LocalAddr() }

// Send implements PacketConn.
func (u *UDPConn) Send(p []byte) error {
	if _, err := u.conn.WriteToUDP(p, u.peer); err != nil {
		if errors.Is(err, net.ErrClosed) {
			return ErrClosed
		}
		// Transient network errors are indistinguishable from loss; the
		// protocol retries anyway.
		return nil
	}
	return nil
}

// Recv implements PacketConn. Datagrams from anywhere but the peer's
// address and port are dropped: the data link is a two-station system.
// The packet returned is lent (see PacketConn.Recv): it is the conn's one
// receive buffer, refilled by the next Recv. The datagram is read into a
// buffer on Recv's stack and copied out at its own length, so a conn
// keeps as many bytes as its largest datagram, not UDP's 64 KiB.
//
// Transient read errors (e.g. ICMP-induced ECONNREFUSED while the peer
// host is down — exactly the crash scenario the protocol exists for) are
// returned as they are: the engine pump takes any error but ErrClosed for
// a transient fault, counts an io_retry and paces the retry on the shared
// timer wheel, so this goroutine never sleeps. Only a closed socket
// returns ErrClosed.
func (u *UDPConn) Recv() ([]byte, error) {
	buf := make([]byte, maxUDPPacket)
	for {
		n, from, err := u.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil, ErrClosed
			}
			return nil, fmt.Errorf("netlink: udp read: %w", err)
		}
		if !u.fromPeer(from) {
			continue
		}
		u.lent = append(u.lent[:0], buf[:n]...)
		return u.lent, nil
	}
}

// Close implements PacketConn.
func (u *UDPConn) Close() error { return u.conn.Close() }
