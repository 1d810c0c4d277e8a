// Package session composes the pieces the paper leaves to "the higher
// layer" into one self-healing sending endpoint: a supervised station
// (ghm/internal/netlink.Sender), the buffering outbox of Axiom 1
// (ghm/internal/outbox.Queue), and the crash-recovery supervisor of
// ghm/internal/supervise.
//
// The caller enqueues payloads; the outbox drives them through whichever
// station incarnation is currently alive. When the watchdog declares an
// incarnation wedged — work pending, no OK committing — the supervisor
// tears it down (a deliberate crash^T: the station's memory is erased,
// exactly the fault the protocol is built to survive) and dials a fresh
// one with fresh randomness; the outbox resubmits the unconfirmed
// backlog. Delivery is therefore at-least-once across restarts and
// exactly-once between them, matching the outbox's documented contract.
package session

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ghm/internal/core"
	"ghm/internal/engine"
	"ghm/internal/metrics"
	"ghm/internal/netlink"
	"ghm/internal/outbox"
	"ghm/internal/supervise"
	"ghm/internal/trace"
)

// errRestarted marks a Send interrupted because the supervisor tore the
// incarnation down mid-transfer; the outbox treats it like a crash and
// resubmits.
var errRestarted = errors.New("session: station restarted")

// Config parameterizes a Session. Dial is required; everything else
// defaults sanely.
type Config struct {
	// Dial opens the transport for one station incarnation. It is called
	// for every (re)start, so it must be safe to call repeatedly; pair it
	// with netlink.SharedConn to reuse one long-lived socket.
	Dial func() (netlink.PacketConn, error)
	// Params configures each incarnation's protocol transmitter. A seeded
	// Params.Source is drawn from sequentially across incarnations, so
	// every rebuild still gets fresh (but reproducible) randomness.
	Params core.Params
	// Tap observes station lifecycle events across all incarnations.
	Tap netlink.Tap

	// WALPath/WALSync/MaxAttempts configure the outbox (see outbox.Config).
	WALPath     string
	WALSync     bool
	MaxAttempts int

	// Window is the station's sliding-window depth (default 1). Each
	// incarnation is a netlink.Sender of that depth fed by as many outbox
	// workers, so up to Window payloads are in flight at once; the
	// receiver releases them in admission order, and the outbox's
	// byte-identical resubmission after a wipe is exactly the contract a
	// deeper window's exactly-once dedup needs.
	Window int
	// OnTrailer is every incarnation's netlink.SenderConfig.OnTrailer.
	OnTrailer func(trailer []byte)

	// Watchdog and backoff knobs; see supervise.Config.
	WatchdogWindow    time.Duration
	WatchdogInterval  time.Duration
	RestartBackoff    time.Duration
	RestartBackoffMax time.Duration

	// Seed fixes supervisor jitter for reproducible tests (0 = clock).
	Seed int64
	// Wheel paces the supervisor (watchdog polls, backoff sleeps) and its
	// clock stamps them — nil keeps the process-wide
	// wheel on the wall clock. A caller that owns a wheel passes it, so
	// sessions add no ticker of their own. The stations themselves take
	// their clock from the conn's engine wheel, so virtualizing a session
	// fully means dialing conns whose engines ride the same wheel.
	Wheel *engine.Wheel
	// Metrics receives the session.* family; nil uses metrics.Default().
	Metrics *metrics.Registry
	// OnTransition, when non-nil, observes every health change; it is the
	// supervisor's (see supervise.Config), called from its goroutine, so
	// keep it fast. No call follows Close.
	OnTransition func(supervise.Transition)
}

// The session's own metric names (the supervisor adds the rest of the
// session.* family); declared constants per the metricname invariant.
const (
	mSessionResubmits = "session.resubmits"
	mSessionBacklog   = "session.backlog"
)

// Stats snapshots a Session's counters.
type Stats struct {
	Enqueued      int    // payloads accepted
	Sent          int    // payloads confirmed delivered
	Resubmits     int    // crash- or restart-triggered resubmissions
	Pending       int    // accepted but unconfirmed
	Restarts      int64  // station incarnations built after the first
	StartFailures int64  // Dial/build failures
	Wedges        int64  // watchdog firings
	Transitions   int64  // health transitions
	Generation    uint64 // incarnations built so far
	Health        supervise.Health
}

// Session is the supervised endpoint; see the package comment. Create
// with New, always Close.
type Session struct {
	cfg Config
	sup *supervise.Supervisor[*netlink.Sender]
	q   *outbox.Queue

	resubmits *metrics.Counter
	// dropBacklog takes this session's queue out of the session.backlog
	// gauge: the registry is often the process-wide one, and would
	// otherwise hold a closed session's queue, kept buffers and all, for
	// the life of the process.
	dropBacklog func()

	// epoch numbers station incarnations. Each rebuild of a framed window
	// (depth above 1) frames a higher epoch into its admission seqs, so a
	// long-lived remote receiver adopts the fresh stream instead of
	// dropping the restarted seq space as duplicates.
	epoch atomic.Uint64

	closeOnce sync.Once
	closeErr  error
}

// New builds and starts a Session.
func New(cfg Config) (*Session, error) {
	if cfg.Dial == nil {
		return nil, fmt.Errorf("session: Dial is required")
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.Default()
	}
	s := &Session{cfg: cfg, resubmits: reg.Counter(mSessionResubmits)}

	sup, err := supervise.New(supervise.Config[*netlink.Sender]{
		Start:        s.start,
		Stop:         func(st *netlink.Sender) { st.Close() },
		Pending:      s.pending,
		Window:       cfg.WatchdogWindow,
		Interval:     cfg.WatchdogInterval,
		BackoffBase:  cfg.RestartBackoff,
		BackoffMax:   cfg.RestartBackoffMax,
		Seed:         cfg.Seed,
		Wheel:        cfg.Wheel,
		Metrics:      cfg.Metrics,
		OnTransition: cfg.OnTransition,
	})
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	s.sup = sup

	q, err := outbox.New(outbox.Config{
		Send: s.send,
		Retryable: func(err error) bool {
			return errors.Is(err, netlink.ErrCrashed) || errors.Is(err, errRestarted)
		},
		WALPath:     cfg.WALPath,
		WALSync:     cfg.WALSync,
		MaxAttempts: cfg.MaxAttempts,
		Window:      cfg.Window,
	})
	if err != nil {
		sup.Close()
		return nil, fmt.Errorf("session: %w", err)
	}
	s.q = q

	// Summed: the sessions of a registry — a mesh's route hops — report
	// their total backlog, not whichever registered last.
	s.dropBacklog = reg.GaugeFuncSum(mSessionBacklog, func() float64 {
		return float64(q.Stats().Pending)
	})

	// Run only after the queue is wired: the supervisor goroutine reads
	// s.q through pending, and goroutine creation orders the writes.
	sup.Run()
	return s, nil
}

// start dials and builds one station incarnation. The tap wrapper feeds
// every OK to the watchdog as progress before forwarding to the caller's
// tap.
func (s *Session) start() (*netlink.Sender, error) {
	conn, err := s.cfg.Dial()
	if err != nil {
		return nil, err
	}
	tap := func(k trace.Kind, msg []byte, slot int) {
		if k == trace.KindOK {
			s.sup.Progress()
		}
		if s.cfg.Tap != nil {
			s.cfg.Tap(k, msg, slot)
		}
	}
	st, err := netlink.NewSender(conn, netlink.SenderConfig{
		Window:    s.cfg.Window,
		Epoch:     s.epoch.Add(1),
		Params:    s.cfg.Params,
		Tap:       tap,
		Metrics:   s.cfg.Metrics,
		OnTrailer: s.cfg.OnTrailer,
	})
	if err != nil {
		conn.Close()
		return nil, err
	}
	return st, nil
}

// pending reports unconfirmed backlog to the watchdog.
func (s *Session) pending() bool { return s.q.Stats().Pending > 0 }

// send is the outbox's SendFunc: transfer one payload through the live
// incarnation, translating a teardown mid-transfer into a retryable
// error.
func (s *Session) send(ctx context.Context, msg []byte) error {
	st, gen, err := s.sup.Current(ctx)
	if err != nil {
		return err // ctx ended or session stopped while waiting
	}
	err = st.Send(ctx, msg)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, netlink.ErrCrashed):
		// Station crash wiped the transfer; outbox resubmits.
		s.resubmits.Inc()
		return err
	case errors.Is(err, netlink.ErrClosed) && ctx.Err() == nil:
		// The incarnation died under us — the watchdog tore it down, or its
		// conn closed — not the session: resubmit on the successor. A dead
		// conn stays dead, so have it replaced now rather than resend into
		// it until the watchdog fires; after a teardown gen is stale and
		// Fail ignores it.
		s.sup.Fail(gen)
		s.resubmits.Inc()
		return fmt.Errorf("%w: %v", errRestarted, err)
	default:
		return err
	}
}

// Enqueue accepts a payload for supervised delivery and returns its queue
// id. The outbox copies msg; the caller may reuse it at once. With a WAL
// the payload is durable before Enqueue returns.
func (s *Session) Enqueue(msg []byte) (uint64, error) { return s.q.Enqueue(msg) }

// Flush blocks until the backlog is fully confirmed, the queue fails
// fatally, or ctx ends. Restarts are not failures: Flush rides through
// them.
func (s *Session) Flush(ctx context.Context) error { return s.q.Flush(ctx) }

// Err returns the queue's sticky fatal error, if any.
func (s *Session) Err() error { return s.q.Err() }

// Health returns the supervisor's current health state.
func (s *Session) Health() supervise.Health { return s.sup.Health() }

// Stats snapshots the session's counters.
func (s *Session) Stats() Stats {
	qs := s.q.Stats()
	gen := s.sup.Generation() // first, so Restarts reads at least gen-1
	ss := s.sup.Stats()
	return Stats{
		Enqueued:      qs.Enqueued,
		Sent:          qs.Sent,
		Resubmits:     qs.Resubmits,
		Pending:       qs.Pending,
		Restarts:      ss.Restarts,
		StartFailures: ss.StartFailures,
		Wedges:        ss.Wedges,
		Transitions:   ss.Transitions,
		Generation:    gen,
		Health:        s.sup.Health(),
	}
}

// Crash erases the live incarnation's memory (crash^T) without tearing
// it down — the protocol-level fault, for tests and chaos harnesses. The
// outbox resubmits whatever was wiped. No-op between incarnations.
func (s *Session) Crash() {
	if st, ok := s.sup.Peek(); ok {
		st.Crash()
	}
}

// Close stops the session: the queue first (unblocking any in-flight
// send), then the supervisor (tearing down the incarnation).
func (s *Session) Close() error {
	s.closeOnce.Do(func() {
		s.closeErr = s.q.Close()
		s.sup.Close()
		s.dropBacklog()
	})
	return s.closeErr
}
