package ghm

import (
	"context"
	"fmt"

	"ghm/internal/mux"
	"ghm/internal/netlink"
)

// MaxLanes is the largest lane count accepted by NewMuxSender and
// NewMuxReceiver. It is the deepest window a station has: beyond it a
// lane adds no depth.
const MaxLanes = mux.MaxLanes

// MuxSender pipelines messages over one link. It is one windowed
// station, and its depth — min(lanes × window, MaxLanes), window being
// the WithWindow depth (default 1) — is how many Sends proceed
// concurrently, each with the full per-message guarantees. The receiving
// station releases in admission order, which is the global send order.
// The depth decides the wire format, so both ends must agree on lanes and
// window, and run the same build.
type MuxSender struct {
	s *netlink.Sender
}

// NewMuxSender starts the transmitting station over conn. Both sides
// must use the same lane count and WithWindow depth.
func NewMuxSender(conn PacketConn, lanes int, opts ...Option) (*MuxSender, error) {
	o := applyOptions(opts)
	s, err := mux.NewSenderWindow(conn, lanes, o.windowDepth(), o.params())
	if err != nil {
		return nil, fmt.Errorf("ghm: %w", err)
	}
	return &MuxSender{s: s}, nil
}

// Send transfers msg and blocks until delivery is confirmed; run Sends
// concurrently for pipelining. Like Sender.Send, a Send whose ctx ends
// mid-transfer crashes the station, and every Send then in flight fails
// too. Resubmitting each failed message byte-identical heals the stream;
// one never resubmitted leaves a hole at which the receiving side waits.
func (s *MuxSender) Send(ctx context.Context, msg []byte) error {
	return s.s.Send(ctx, msg)
}

// Close stops the station; Sends then fail with ErrClosed.
func (s *MuxSender) Close() error { return s.s.Close() }

// MuxReceiver is the receiving side of a lane-multiplexed session.
type MuxReceiver struct {
	r *netlink.Receiver
}

// NewMuxReceiver starts the receiving station over conn. Lane count and
// WithWindow depth must match the sender's.
func NewMuxReceiver(conn PacketConn, lanes int, opts ...Option) (*MuxReceiver, error) {
	o := applyOptions(opts)
	r, err := mux.NewReceiverWindow(conn, lanes, o.windowDepth(), netlink.ReceiverConfig{
		Params:          o.params(),
		RetryInterval:   o.retryInterval,
		RetryBackoffMax: o.retryBackoff,
	})
	if err != nil {
		return nil, fmt.Errorf("ghm: %w", err)
	}
	return &MuxReceiver{r: r}, nil
}

// Recv blocks for the next message in global send order.
func (r *MuxReceiver) Recv(ctx context.Context) ([]byte, error) {
	return r.r.Recv(ctx)
}

// Close stops the station; Recv then returns what was already released,
// and ErrClosed after it.
func (r *MuxReceiver) Close() error { return r.r.Close() }
