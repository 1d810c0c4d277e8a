package ghm

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ghm/internal/netlink"
	"ghm/internal/session"
	"ghm/internal/supervise"
)

// Health is a Session's coarse health state.
type Health int

// The health states, ordered by severity.
const (
	// HealthHealthy: the station is up and either confirming transfers or
	// idle with nothing pending.
	HealthHealthy Health = Health(supervise.Healthy)
	// HealthDegraded: a restart is in flight — the progress watchdog
	// fired or a station failed to start.
	HealthDegraded Health = Health(supervise.Degraded)
)

// String implements fmt.Stringer.
func (h Health) String() string { return supervise.Health(h).String() }

// HealthTransition is one health-state change, delivered to Subscribe
// channels.
type HealthTransition struct {
	From, To Health
	// Cause is a short human-readable reason ("watchdog: no progress",
	// "start failed: ...", "progress", ...).
	Cause string
	At    time.Time
}

// SessionConfig parameterizes NewSession. Dial is required; zero values
// elsewhere mean sensible defaults.
type SessionConfig struct {
	// Dial opens the transport for one station incarnation. It is called
	// on every (re)start. Share wraps one long-lived PacketConn into a
	// redialable source with exactly this signature.
	Dial func() (PacketConn, error)
	// Options configure each station incarnation (WithEpsilon, WithSeed,
	// WithTap, ...), exactly as for NewSender.
	Options []Option

	// WAL persists the backlog to a write-ahead log at this path: a
	// session reopened on it retransfers the unconfirmed suffix. Each
	// record reaches the operating system before Enqueue returns, so an
	// accepted payload survives a process crash; WALSync also fsyncs it
	// to the device, surviving power loss at one fsync per payload. A
	// crash mid-write tears at most the last record; reopening keeps the
	// longest consistent prefix and compacts the log.
	WAL     string
	WALSync bool
	// MaxAttempts bounds resubmissions per message (0 = unlimited).
	MaxAttempts int

	// WatchdogWindow is how long transfers may sit pending with no OK
	// committing before the station is declared wedged and rebuilt
	// (default 2s). WatchdogInterval is the poll period (default
	// WatchdogWindow/8).
	WatchdogWindow   time.Duration
	WatchdogInterval time.Duration

	// RestartBackoff and RestartBackoffMax bound the jittered exponential
	// delay between consecutive rebuilds (defaults 50ms and 5s).
	RestartBackoff    time.Duration
	RestartBackoffMax time.Duration
}

// SessionStats snapshots a Session's counters.
type SessionStats struct {
	Enqueued      int    // payloads accepted
	Sent          int    // payloads confirmed delivered
	Resubmits     int    // crash- or restart-triggered resubmissions
	Pending       int    // accepted but not yet confirmed
	Restarts      int64  // stations rebuilt after the first
	StartFailures int64  // Dial or station-start failures
	Wedges        int64  // progress-watchdog firings
	Generation    uint64 // station incarnations built so far
	Health        Health // current health state
}

// Session is a supervised, self-healing sending endpoint: a transmitting
// station under a progress watchdog, fronted by the buffering queue of
// the paper's Axiom 1. Enqueue payloads at will; the session transfers
// them in order, and when the station wedges — a half-dead socket, a
// long partition, a crash — it is torn down and rebuilt with fresh
// randomness, the unconfirmed backlog resubmitted automatically, under
// capped exponential backoff that never gives up.
//
// Delivery is exactly-once while no station crashes and at-least-once
// across crashes and restarts: a wiped in-flight payload may or may not
// have reached the receiver before the wipe, so the session resubmits
// it. Deduplicate by an application-level id (Enqueue's return value
// works) when that matters.
//
// Create with NewSession; always Close.
type Session struct {
	s *session.Session

	subMu  sync.Mutex
	subs   []chan HealthTransition
	closed bool // subscriptions are closed channels from Close on
}

// NewSession builds and starts a supervised session.
func NewSession(cfg SessionConfig) (*Session, error) {
	if cfg.Dial == nil {
		return nil, fmt.Errorf("ghm: session: Dial is required")
	}
	o := applyOptions(cfg.Options)
	if k := o.windowDepth(); k < 1 || k > MaxWindow {
		return nil, fmt.Errorf("ghm: session: window depth must be in [1, %d], got %d", MaxWindow, k)
	}
	dial := func() (netlink.PacketConn, error) { return cfg.Dial() }
	var seed int64
	if o.hasSeed {
		// Derive the supervisor's jitter from the station seed so a seeded
		// session is deterministic end to end.
		seed = o.seed + 1
	}
	s := &Session{}
	var err error
	s.s, err = session.New(session.Config{
		Dial:              dial,
		Params:            o.params(),
		Tap:               tapToTrace(o.tap),
		WALPath:           cfg.WAL,
		WALSync:           cfg.WALSync,
		MaxAttempts:       cfg.MaxAttempts,
		Window:            o.windowDepth(),
		WatchdogWindow:    cfg.WatchdogWindow,
		WatchdogInterval:  cfg.WatchdogInterval,
		RestartBackoff:    cfg.RestartBackoff,
		RestartBackoffMax: cfg.RestartBackoffMax,
		Seed:              seed,
		OnTransition:      s.fanout,
	})
	if err != nil {
		return nil, fmt.Errorf("ghm: %w", err)
	}
	return s, nil
}

// Enqueue accepts a payload for supervised in-order delivery and returns
// its queue id (also usable as an application-level dedup key). The
// session copies msg, so the caller may reuse it at once. With a WAL the
// payload is durable before Enqueue returns.
func (s *Session) Enqueue(msg []byte) (uint64, error) { return s.s.Enqueue(msg) }

// Flush blocks until every enqueued payload is confirmed delivered, the
// session fails fatally, or ctx ends. Station restarts are not failures:
// Flush rides through them.
func (s *Session) Flush(ctx context.Context) error { return s.s.Flush(ctx) }

// Err returns the session's sticky fatal error, if any. Watchdog
// restarts and failed station starts are not fatal; running out of
// MaxAttempts or a WAL write failure is.
func (s *Session) Err() error { return s.s.Err() }

// Health returns the current health state.
func (s *Session) Health() Health { return Health(s.s.Health()) }

// Subscribe returns a channel of health transitions. The channel buffers
// 16; if the subscriber lags, the oldest transitions are dropped rather
// than blocking the supervisor, so the last one received is the current
// state. Close closes the channel.
func (s *Session) Subscribe() <-chan HealthTransition {
	// 16 covers a few wedge-and-heal cycles; a longer lag loses only
	// history, never the current state.
	c := make(chan HealthTransition, 16)
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if s.closed {
		close(c)
		return c
	}
	s.subs = append(s.subs, c)
	return c
}

// fanout hands a transition to every subscriber from the supervisor's
// goroutine. A full channel gives up its oldest transition for it; the
// lock makes fanout the channel's only sender, so the send finds room.
func (s *Session) fanout(tr supervise.Transition) {
	ht := HealthTransition{From: Health(tr.From), To: Health(tr.To), Cause: tr.Cause, At: tr.At}
	s.subMu.Lock()
	defer s.subMu.Unlock()
	for _, c := range s.subs {
		if len(c) == cap(c) {
			select {
			case <-c:
			default: // the subscriber made room itself
			}
		}
		c <- ht
	}
}

// Stats snapshots the session's counters.
func (s *Session) Stats() SessionStats {
	st := s.s.Stats()
	return SessionStats{
		Enqueued:      st.Enqueued,
		Sent:          st.Sent,
		Resubmits:     st.Resubmits,
		Pending:       st.Pending,
		Restarts:      st.Restarts,
		StartFailures: st.StartFailures,
		Wedges:        st.Wedges,
		Generation:    st.Generation,
		Health:        Health(st.Health),
	}
}

// Crash erases the live station's memory (crash^T) without tearing it
// down, for fault-injection tests and demos; the session resubmits
// whatever the wipe interrupted.
func (s *Session) Crash() { s.s.Crash() }

// Close stops the session: the queue, the supervisor, the station, then
// the subscription channels. With a WAL, the unconfirmed backlog stays
// durable for the next session on the same path.
func (s *Session) Close() error {
	err := s.s.Close() // no transition follows: the supervisor has stopped
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if !s.closed {
		s.closed = true
		for _, c := range s.subs {
			close(c)
		}
		s.subs = nil
	}
	return err
}

// SharedLink adapts one long-lived PacketConn into the redialable
// transport a Session needs: every Dial detaches the previous station's
// view and attaches a fresh one, without closing the underlying conn.
// Use it when the transport is expensive or impossible to re-open per
// restart (a bound UDP socket, one half of a Pipe).
type SharedLink struct {
	sc *netlink.SharedConn
}

// Share wraps conn. Closing the SharedLink closes conn; closing the
// views handed out by Dial does not.
func Share(conn PacketConn) *SharedLink {
	return &SharedLink{sc: netlink.NewSharedConn(conn)}
}

// Dial attaches a fresh view; it has the signature SessionConfig.Dial
// expects.
func (l *SharedLink) Dial() (PacketConn, error) { return l.sc.Attach() }

// Wedge half-kills the current view for fault injection: its sends
// vanish silently and it stops receiving, without surfacing any error —
// the failure mode only a progress watchdog can detect. The next Dial
// attaches a working view again.
func (l *SharedLink) Wedge() { l.sc.WedgeCurrent() }

// Close releases the underlying conn and unblocks every view.
func (l *SharedLink) Close() error { return l.sc.Close() }
