// Package mux multiplexes several independent protocol sessions ("lanes")
// over one packet link and restores a single, globally ordered message
// stream at the far side.
//
// The paper's protocol is stop-and-wait at message granularity: one
// message per three-packet handshake, so throughput is bounded by the
// link round trip. Its conclusions list "modify the protocol for better
// efficiency" as further work; lane multiplexing is the conservative
// answer — rather than touching the verified state machines, it runs N of
// them side by side. Each message carries a sequence number; lanes
// confirm messages independently (N transfers in flight), and the
// receiving side's resequencer releases messages in sequence order.
//
// Lanes are endpoints of one runtime engine (ghm/internal/engine), so
// the goroutine bill is flat in the lane count: one pump per conn plus
// one resequencer on the receiving side, where the pre-engine stack
// spent three goroutines per lane.
//
// Guarantees: every delivered message is delivered exactly once, in
// global send order, each with the single-lane protocol's 1-epsilon
// confidence. Limitation: the guarantees are per message, so if a Send
// ultimately fails (station crash wipes an in-flight message and the
// caller does not resubmit), the stream has a hole and Recv will wait at
// it — treat a failed Send as fatal to the stream, exactly as a failed
// write is fatal to a TCP connection.
package mux

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"ghm/internal/core"
	"ghm/internal/engine"
	"ghm/internal/netlink"
)

// MaxLanes bounds the lane count (the lane id stays one byte on the wire).
const MaxLanes = 64

// laneDeliveryBuffer sizes the merge channel per lane, mirroring the
// per-station delivery buffer the pre-engine stack gave every lane, so
// how far senders can run ahead of a slow consumer is unchanged by the
// engine refactor.
const laneDeliveryBuffer = 16

var (
	// ErrClosed reports use of a closed mux session.
	ErrClosed = errors.New("mux: closed")
	errLanes  = errors.New("mux: lane count must be in [1, MaxLanes]")
	errWindow = errors.New("mux: window depth must be in [1, core.MaxWindow]")
)

// Sender pipelines messages across several transmitter lanes. Up to
// `lanes × window` Send calls proceed concurrently; each blocks until
// its own message is confirmed.
type Sender struct {
	eng   *engine.Engine
	lanes []*netlink.Sender

	mu   sync.Mutex
	seq  uint64
	free chan int // indices of idle lanes (each lane appears `window` times)

	closed    chan struct{}
	closeOnce sync.Once
}

// NewSender starts `lanes` transmitter sessions over conn, one engine
// endpoint each.
func NewSender(conn netlink.PacketConn, lanes int, p core.Params) (*Sender, error) {
	return NewSenderWindow(conn, lanes, 1, p)
}

// NewSenderWindow starts `lanes` transmitter sessions of window depth
// `window` over conn: up to lanes×window messages in flight. Window 1 is
// exactly NewSender; deeper windows multiply the in-flight budget without
// multiplying engine endpoints.
func NewSenderWindow(conn netlink.PacketConn, lanes, window int, p core.Params) (*Sender, error) {
	if lanes < 1 || lanes > MaxLanes {
		return nil, errLanes
	}
	if window < 1 || window > core.MaxWindow {
		return nil, errWindow
	}
	eng := netlink.NewEngine(conn, lanes, nil, nil)
	s := &Sender{
		eng:    eng,
		free:   make(chan int, lanes*window),
		closed: make(chan struct{}),
	}
	for i := 0; i < lanes; i++ {
		ep, err := eng.Endpoint(i)
		if err != nil {
			s.fail()
			return nil, fmt.Errorf("mux: lane %d: %w", i, err)
		}
		ls, err := netlink.NewSender(ep, netlink.SenderConfig{Window: window, Params: p})
		if err != nil {
			s.fail()
			return nil, fmt.Errorf("mux: lane %d: %w", i, err)
		}
		s.lanes = append(s.lanes, ls)
		for t := 0; t < window; t++ {
			s.free <- i
		}
	}
	return s, nil
}

// fail tears down a partially built sender: lanes first, while their
// engine endpoints are still live (closing the engine first would have
// each lane detach from a dead engine — and strand any station teardown
// that still writes to the conn), then the engine and conn.
func (s *Sender) fail() {
	for _, l := range s.lanes {
		l.Close()
	}
	s.eng.Close()
}

// Send assigns msg the next global sequence number, transfers it on an
// idle lane and blocks until that lane confirms delivery. Run up to
// `lanes × window` Sends concurrently for pipelining.
func (s *Sender) Send(ctx context.Context, msg []byte) error {
	var lane int
	select {
	case lane = <-s.free:
	case <-ctx.Done():
		return ctx.Err()
	case <-s.closed:
		return ErrClosed
	}
	// The token goes back on every path, success and failure alike: free
	// has capacity lanes×window and each token is held by exactly one
	// Send, so the return can never block — and a conditional return
	// (select/default) would silently shrink the window on the day that
	// invariant broke, which is strictly worse than blocking loudly.
	defer func() { s.free <- lane }()

	s.mu.Lock()
	seq := s.seq
	s.seq++
	s.mu.Unlock()

	framed := binary.AppendUvarint(nil, seq)
	framed = append(framed, msg...)
	if err := s.lanes[lane].Send(ctx, framed); err != nil {
		return fmt.Errorf("mux: seq %d: %w", seq, err)
	}
	return nil
}

// Close stops every lane — while their engine endpoints are still live,
// so pending Sends settle their crash bookkeeping against a working
// conn — then the engine pump and the conn.
func (s *Sender) Close() error {
	s.closeOnce.Do(func() {
		close(s.closed)
		for _, l := range s.lanes {
			l.Close()
		}
		s.eng.Close()
	})
	return nil
}

// item is one framed lane delivery: global sequence number plus body.
type item struct {
	seq uint64
	msg []byte
}

// Receiver merges lane deliveries back into one ordered stream.
type Receiver struct {
	eng   *engine.Engine
	lanes []*netlink.Receiver

	merged chan item
	out    chan []byte
	stop   chan struct{}
	done   chan struct{}

	closeOnce sync.Once
}

// NewReceiver starts `lanes` receiver sessions over conn. The lane count
// must match the sender's.
//
// Lane receivers run in Deliver mode: committed deliveries are pushed
// straight from the engine pump into the merge channel (capacity
// reserved by the Accept gate — a full merge channel sheds lane packets
// as link loss instead of blocking the pump), and a single resequencer
// goroutine releases them in global order.
func NewReceiver(conn netlink.PacketConn, lanes int, cfg netlink.ReceiverConfig) (*Receiver, error) {
	return NewReceiverWindow(conn, lanes, 1, cfg)
}

// NewReceiverWindow starts `lanes` receiver sessions of window depth
// `window` over conn; lanes and window must match the sender's. Window 1
// is exactly NewReceiver. cfg's own Window, Accept and Deliver are
// overridden: the depth is the argument and the lanes feed the
// resequencer.
func NewReceiverWindow(conn netlink.PacketConn, lanes, window int, cfg netlink.ReceiverConfig) (*Receiver, error) {
	if lanes < 1 || lanes > MaxLanes {
		return nil, errLanes
	}
	if window < 1 || window > core.MaxWindow {
		return nil, errWindow
	}
	// A depth-1 lane releases exactly one message per accepted packet; a
	// deeper lane can release a burst — the gap-filling delivery plus
	// every parked successor. The Accept gate reserves the worst-case
	// burst so laneDeliver stays non-blocking, and the merge channel is
	// sized so the reservation never starves a single-lane session.
	burst := netlink.WindowReleaseBound(window)
	eng := netlink.NewEngine(conn, lanes, nil, nil)
	r := &Receiver{
		eng:    eng,
		merged: make(chan item, lanes*laneDeliveryBuffer*window+burst-1),
		out:    make(chan []byte, lanes*window),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	cfg.Window = window
	cfg.Accept = func() bool { return cap(r.merged)-len(r.merged) >= burst }
	cfg.Deliver = r.laneDeliver
	for i := 0; i < lanes; i++ {
		ep, err := eng.Endpoint(i)
		if err != nil {
			r.fail()
			return nil, fmt.Errorf("mux: lane %d: %w", i, err)
		}
		lr, err := netlink.NewReceiver(ep, cfg)
		if err != nil {
			r.fail()
			return nil, fmt.Errorf("mux: lane %d: %w", i, err)
		}
		r.lanes = append(r.lanes, lr)
	}
	go r.resequence()
	return r, nil
}

// fail tears down a partially built receiver: lanes first, while their
// engine endpoints are still live, then the engine and conn.
func (r *Receiver) fail() {
	for _, l := range r.lanes {
		l.Close()
	}
	r.eng.Close()
}

// laneDeliver runs on the engine pump for every committed lane delivery.
// Space in merged was reserved by the Accept gate (the pump is the only
// producer), so the push cannot block; the stop case is defensive.
func (r *Receiver) laneDeliver(framed []byte) {
	seq, n := binary.Uvarint(framed)
	if n <= 0 {
		return // malformed frame: drop like a lost packet
	}
	select {
	case r.merged <- item{seq: seq, msg: framed[n:]}:
	case <-r.stop:
	}
}

// Recv blocks for the next message in global sequence order.
func (r *Receiver) Recv(ctx context.Context) ([]byte, error) {
	select {
	case m := <-r.out:
		return m, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-r.done:
		select {
		case m := <-r.out:
			return m, nil
		default:
			return nil, ErrClosed
		}
	}
}

// Close stops every lane — while their engine endpoints are still live,
// so lane teardown (retry-timer stops, final CTL flushes) runs against a
// working conn — then the engine pump, the conn and the resequencer.
func (r *Receiver) Close() error {
	r.closeOnce.Do(func() {
		close(r.stop)
		for _, l := range r.lanes {
			l.Close()
		}
		r.eng.Close()
		<-r.done
	})
	return nil
}

// resequence is the receiving side's only goroutine: it orders lane
// deliveries by sequence number and releases them to Recv. It exits on
// Close and on engine death (the conn was killed externally), so a dead
// link surfaces ErrClosed from Recv instead of wedging it.
func (r *Receiver) resequence() {
	defer close(r.done)
	pending := make(map[uint64][]byte)
	var next uint64
	for {
		select {
		case it := <-r.merged:
			if it.seq < next {
				continue // impossible under lane exactly-once; defensive
			}
			pending[it.seq] = it.msg
			for {
				msg, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				select {
				case r.out <- msg:
					next++
				case <-r.stop:
					return
				}
			}
		case <-r.stop:
			return
		case <-r.eng.Dead():
			// Drain what the lanes already committed, release the
			// in-order prefix, then report closed.
		drain:
			for {
				select {
				case it := <-r.merged:
					if it.seq >= next {
						pending[it.seq] = it.msg
					}
				default:
					break drain
				}
			}
			for {
				msg, ok := pending[next]
				if !ok {
					return
				}
				delete(pending, next)
				select {
				case r.out <- msg:
					next++
				default:
					return
				}
			}
		}
	}
}
