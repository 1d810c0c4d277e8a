package netlink

import (
	"sync"

	"ghm/internal/engine"
)

// SharedConn multiplexes one long-lived PacketConn across a sequence of
// short-lived station incarnations. A station's Close tears down its conn
// (Sender.Close closes the conn it was built on), which is exactly right
// for a station that owns its socket — but a supervisor that rebuilds
// stations needs the underlying link to outlive each incarnation.
// SharedConn keeps the real conn open and hands out lightweight views via
// Attach; closing a view detaches it without touching the link.
//
// SharedConn is a thin skin over a raw-mode runtime engine: a view is an
// engine endpoint and Attach is endpoint re-registration, so only the most
// recently attached view sends or receives — earlier incarnations are dead
// by definition, and the paper's crash model wants their state
// (including queued packets) erased. WedgeCurrent simulates a half-dead
// endpoint — the current view's sends vanish and it receives nothing,
// while the conn itself stays healthy for the next Attach — the failure
// mode a progress watchdog exists to catch.
type SharedConn struct {
	eng *engine.Engine

	mu     sync.Mutex
	cur    *engine.Endpoint
	closed bool
}

// NewSharedConn wraps under in a raw engine (one pump, no framing — the
// wire format is untouched). Close the SharedConn (not the views) to
// release under.
func NewSharedConn(under PacketConn) *SharedConn {
	return NewSharedConnOn(under, nil)
}

// NewSharedConnOn is NewSharedConn with the engine's timer wheel (and so
// its clock) injected; nil keeps the process-wide default wheel. Views
// attached to the shared conn are engine endpoints, so stations built over
// them inherit the wheel instead of wrapping the view in another engine
// — which makes this the standard way to put a station's I/O, retries
// and timestamps onto a virtual clock.
func NewSharedConnOn(under PacketConn, wheel *engine.Wheel) *SharedConn {
	return &SharedConn{eng: engine.New(under, engine.Config{Raw: true, Wheel: wheel})}
}

// Attach hands out a fresh view and routes all subsequent inbound traffic
// to it. Any previous view is closed: its sends fail with ErrClosed, so a
// station left on it goes quiet instead of talking over its successor. A
// view is the engine endpoint itself: a wedged one swallows its sends
// (loss, not error — that is the point of a wedge), and closing it
// detaches it, leaving the shared conn open for the next Attach. The
// signature matches what a supervisor's Start callback needs.
func (s *SharedConn) Attach() (PacketConn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	ep, err := s.eng.Endpoint(0)
	if err != nil {
		return nil, ErrClosed
	}
	s.cur = ep
	return ep, nil
}

// WedgeCurrent makes the live view a half-dead socket: its sends are
// silently dropped and it receives nothing, but no error surfaces — the
// station just stops making progress. A later Attach starts clean.
// No-op when no view is attached.
func (s *SharedConn) WedgeCurrent() {
	s.mu.Lock()
	v := s.cur
	s.mu.Unlock()
	if v != nil {
		v.Wedge(true)
	}
}

// Close shuts the underlying conn, stops the pump and unblocks every
// view's Recv with ErrClosed.
func (s *SharedConn) Close() error {
	s.mu.Lock()
	s.closed = true
	s.cur = nil
	s.mu.Unlock()
	return s.eng.Close()
}
