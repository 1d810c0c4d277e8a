// Package ghm is a Go implementation of the randomized, crash-resilient
// data-link protocol of Goldreich, Herzberg and Mansour, "Source to
// Destination Communication in the Presence of Faults" (PODC 1989).
//
// The protocol turns any unreliable packet link — one that may lose,
// duplicate and reorder packets, under schedulers as hostile as an
// oblivious adversary — into a reliable message stream: messages arrive in
// order, without omission, duplication or replay, with a caller-chosen
// error probability epsilon per message, and both stations tolerate
// crashes that erase their entire memory.
//
// # Quick start
//
//	left, right := ghm.Pipe(ghm.PipeFaults{Loss: 0.3})
//	s, _ := ghm.NewSender(left)
//	r, _ := ghm.NewReceiver(right)
//	defer s.Close()
//	defer r.Close()
//
//	go s.Send(ctx, []byte("hello"))   // blocks until confirmed delivered
//	msg, _ := r.Recv(ctx)             // "hello", exactly once, in order
//
// Any transport satisfying PacketConn works; DialUDP adapts a UDP socket,
// and Pipe builds an in-process link with configurable fault injection.
//
// The model-level implementation (pure state machines, the paper's channel
// and adversary automata, a discrete-event simulator and checkers for the
// paper's correctness conditions) lives under internal/; the cmd/ghmsim
// and cmd/ghmbench tools expose it for experimentation.
package ghm

import (
	"context"
	"fmt"
	"time"

	"ghm/internal/netlink"
)

// PacketConn is one endpoint of an unreliable datagram link: Send may
// silently lose, duplicate or reorder packets; Recv blocks; Close unblocks
// pending Recvs. Packet contents must arrive uncorrupted (use a
// checksumming transport; UDP qualifies). DESIGN.md §4 ("who owns a
// packet") follows a packet's bytes from Send to the application.
type PacketConn interface {
	// Send places one packet on the link; it must not retain p.
	Send(p []byte) error
	// Recv blocks for the next packet. The slice belongs to the conn and
	// is valid until the next Recv on it, which has one caller at a time;
	// a conn that returns a fresh slice every time is equally correct.
	Recv() ([]byte, error)
	// Close releases the endpoint.
	Close() error
}

// BurstLoss parameterizes Gilbert–Elliott two-state burst loss: the link
// alternates between a Good and a Bad state with the given per-packet
// transition probabilities, dropping packets at each state's own rate.
// Long Bad-state runs produce the correlated loss bursts of real radio
// and congested links — a much harsher regime than independent loss.
type BurstLoss struct {
	// PGoodBad is the per-packet probability of entering the Bad state.
	PGoodBad float64
	// PBadGood is the per-packet probability of leaving the Bad state.
	PBadGood float64
	// LossGood is the drop probability in the Good state.
	LossGood float64
	// LossBad is the drop probability in the Bad state.
	LossBad float64
}

func (b *BurstLoss) netlink() *netlink.GilbertElliott {
	if b == nil {
		return nil
	}
	return &netlink.GilbertElliott{
		PGoodBad: b.PGoodBad,
		PBadGood: b.PBadGood,
		LossGood: b.LossGood,
		LossBad:  b.LossBad,
	}
}

// PipeFaults is what a faulty link does to packets: each direction of
// the in-process link Pipe returns, or the Send path of any conn Impair
// wraps. The zero value is a perfect link.
type PipeFaults struct {
	// Loss is the probability a packet is silently dropped; on an Impair
	// wrapper ImpairedConn.SetLoss changes it at runtime.
	Loss float64
	// DupProb is the probability a packet is delivered twice.
	DupProb float64
	// ReorderProb is the probability a packet is delayed past later ones.
	ReorderProb float64
	// Seed fixes the fault schedule for reproducibility (0 = from clock).
	Seed int64

	// Burst layers Gilbert–Elliott burst loss on each direction, on top
	// of the independent Loss above.
	Burst *BurstLoss
	// Latency delays every packet by a fixed amount.
	Latency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter) per packet; since
	// each packet draws independently, jitter also reorders.
	Jitter time.Duration
	// Bandwidth serializes packets at the given rate in bytes/second
	// (0 = infinite); packets queue behind the serialization clock.
	Bandwidth int
	// Queue caps packets held in each direction's impairment stage
	// (0 = a reasonable default); beyond it packets are dropped.
	Queue int
}

// model is f as the link model every link driver acts on.
func (f PipeFaults) model() netlink.LinkModel {
	return netlink.LinkModel{
		Loss:        f.Loss,
		DupProb:     f.DupProb,
		ReorderProb: f.ReorderProb,
		Burst:       f.Burst.netlink(),
		Latency:     f.Latency,
		Jitter:      f.Jitter,
		Bandwidth:   f.Bandwidth,
		Queue:       f.Queue,
	}
}

// Pipe returns two connected in-process endpoints with the given fault
// behaviour in each direction. Closing either endpoint closes the pipe.
func Pipe(f PipeFaults) (PacketConn, PacketConn) {
	return netlink.Pipe(netlink.PipeConfig{LinkModel: f.model(), Seed: f.Seed})
}

// ImpairedConn is a PacketConn whose Send path passes through a
// configurable impairment stage, with runtime controls for chaos testing:
// SetBlackout fully partitions the link, Blackout partitions it for a
// window, SetLoss ramps the independent loss rate while traffic flows.
type ImpairedConn struct {
	ic *netlink.ImpairedConn
}

var _ PacketConn = (*ImpairedConn)(nil)

// Impair wraps any PacketConn — UDP included, not just pipes — with f's
// impairments on its Send path. Wrap both endpoints to impair both
// directions. The protocol's guarantees hold regardless; Impair exists to
// prove exactly that under chaos tests and soak runs.
func Impair(conn PacketConn, f PipeFaults) *ImpairedConn {
	return &ImpairedConn{ic: netlink.Impair(conn, netlink.ImpairConfig{LinkModel: f.model(), Seed: f.Seed})}
}

// Send implements PacketConn.
func (c *ImpairedConn) Send(p []byte) error { return c.ic.Send(p) }

// Recv implements PacketConn.
func (c *ImpairedConn) Recv() ([]byte, error) { return c.ic.Recv() }

// Close implements PacketConn.
func (c *ImpairedConn) Close() error { return c.ic.Close() }

// SetBlackout switches a full partition of the impaired direction on or
// off: while on, every packet entering the stage is dropped.
func (c *ImpairedConn) SetBlackout(on bool) { c.ic.SetBlackout(on) }

// SetLoss replaces the independent loss probability at runtime.
func (c *ImpairedConn) SetLoss(p float64) { c.ic.SetLoss(p) }

// DialUDP binds laddr and exchanges protocol packets with raddr. UDP is
// exactly the link the protocol was designed for: datagrams may vanish,
// duplicate and reorder, and the UDP checksum turns corruption into loss.
func DialUDP(laddr, raddr string) (PacketConn, error) {
	return netlink.DialUDP(laddr, raddr)
}

// Sender is the transmitting station: it accepts up to WithWindow
// messages at a time (default one) and confirms each delivery. Create
// with NewSender; always Close.
type Sender struct {
	s *netlink.Sender
}

// NewSender starts a transmitting station on conn.
func NewSender(conn PacketConn, opts ...Option) (*Sender, error) {
	o := applyOptions(opts)
	s, err := netlink.NewSender(conn, netlink.SenderConfig{
		Window: o.window,
		Params: o.params(),
		Tap:    tapToTrace(o.tap),
		Epoch:  o.epoch,
	})
	if err != nil {
		return nil, fmt.Errorf("ghm: %w", err)
	}
	return &Sender{s: s}, nil
}

// Send transfers msg to the receiving station and blocks until the
// protocol confirms delivery, ctx ends, or the sender is closed or
// crashed. A nil return means the message reached the receiver's higher
// layer (with probability at least 1-epsilon). Cancelling ctx mid-send
// crashes the station (the protocol has no cancel action), after which the
// next Send starts fresh.
func (s *Sender) Send(ctx context.Context, msg []byte) error {
	return s.s.Send(ctx, msg)
}

// Crash simulates a host crash: all protocol memory is erased and a
// pending Send fails with ErrCrashed. The protocol is built to survive
// this; it exists as API for fault-injection tests and demos.
func (s *Sender) Crash() { s.s.Crash() }

// Stats returns protocol counters since start or the last crash.
func (s *Sender) Stats() SenderStats {
	st := s.s.Stats()
	return SenderStats{
		PacketsSent:   st.PacketsSent,
		Completed:     st.OKs,
		ErrorsCounted: st.ErrorsCounted,
		Extensions:    st.Extensions,
		Ignored:       st.Ignored,
	}
}

// Close stops the station's background loop and waits for it.
func (s *Sender) Close() error { return s.s.Close() }

// Receiver is the receiving station: it hands over delivered messages in
// order, exactly once. Create with NewReceiver; always Close. Its
// WithWindow depth must match the sender's.
type Receiver struct {
	r *netlink.Receiver
}

// NewReceiver starts a receiving station on conn.
func NewReceiver(conn PacketConn, opts ...Option) (*Receiver, error) {
	o := applyOptions(opts)
	r, err := netlink.NewReceiver(conn, netlink.ReceiverConfig{
		Window:          o.window,
		Params:          o.params(),
		RetryInterval:   o.retryInterval,
		RetryBackoffMax: o.retryBackoff,
		Tap:             tapToTrace(o.tap),
	})
	if err != nil {
		return nil, fmt.Errorf("ghm: %w", err)
	}
	return &Receiver{r: r}, nil
}

// Recv blocks for the next delivered message.
func (r *Receiver) Recv(ctx context.Context) ([]byte, error) {
	return r.r.Recv(ctx)
}

// Crash simulates a host crash: all protocol memory is erased. In-flight
// transfers may be delivered twice across a receiver crash — the paper
// proves that unavoidable — but already-completed messages stay safe from
// replay.
func (r *Receiver) Crash() { r.r.Crash() }

// Stats returns protocol counters since start or the last crash.
func (r *Receiver) Stats() ReceiverStats {
	st := r.r.Stats()
	return ReceiverStats{
		PacketsSent:   st.PacketsSent,
		Delivered:     st.Delivered,
		ErrorsCounted: st.ErrorsCounted,
		Extensions:    st.Extensions,
		Ignored:       st.Ignored,
	}
}

// Close stops the station's background loops and waits for them.
func (r *Receiver) Close() error { return r.r.Close() }

// SenderStats are transmitting-station counters.
type SenderStats struct {
	PacketsSent   int // DATA packets emitted
	Completed     int // messages confirmed (OK)
	ErrorsCounted int // suspicious same-length tag mismatches
	Extensions    int // random-tag extensions triggered
	Ignored       int // malformed or irrelevant packets dropped
}

// ReceiverStats are receiving-station counters.
type ReceiverStats struct {
	PacketsSent   int // control packets emitted
	Delivered     int // messages handed to Recv
	ErrorsCounted int // suspicious same-length challenge mismatches
	Extensions    int // challenge extensions triggered
	Ignored       int // malformed or stale packets dropped
}

// ErrClosed reports use of a closed Sender, Receiver or PacketConn.
var ErrClosed = netlink.ErrClosed

// ErrCrashed reports that a pending Send was wiped by a station crash.
var ErrCrashed = netlink.ErrCrashed
