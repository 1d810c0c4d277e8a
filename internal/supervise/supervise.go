// Package supervise restarts wedged components. The paper's stations are
// built to survive having their memory erased — that is the protocol's
// whole premise — but nothing in the protocol restarts a station whose
// host process lost its goroutines, whose socket went half-dead, or whose
// link went dark for longer than the application can wait. Supervise is
// that missing layer, in the spirit of the self-stabilizing treatments of
// the same channel model (Dolev et al.): from any fault state, keep
// converging back toward a working incarnation.
//
// A Supervisor owns one restartable incarnation of a component (built by
// a Start callback, torn down by Stop) and layers two mechanisms on it:
//
//   - a progress watchdog: while the component has pending work
//     (Pending() true) but commits no progress (Progress() not called)
//     for a full Window, the incarnation is declared wedged, torn down
//     and rebuilt;
//   - exponential backoff with jitter between consecutive rebuilds,
//     capped at BackoffMax, so a persistent fault does not turn into a
//     restart storm. The cap is the one bound on the restart rate: the
//     supervisor never gives up, as the paper's stations never do.
//
// The supervisor publishes its health — Healthy, or Degraded while a
// restart is in flight — through Health, an OnTransition callback and
// the session.* metrics family.
package supervise

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ghm/internal/clock"
	"ghm/internal/engine"
	"ghm/internal/metrics"
)

// ErrStopped reports use of a closed Supervisor.
var ErrStopped = errors.New("supervise: stopped")

// Health is the supervisor's coarse view of the supervised endpoint.
type Health int32

// The health states.
const (
	// Healthy: the incarnation is up and either committing progress or
	// idle with nothing pending for a full Window.
	Healthy Health = iota
	// Degraded: a restart is in flight — the watchdog fired, Fail
	// withdrew the incarnation or a start failed — and no incarnation has
	// committed progress or idled a full Window since.
	Degraded
)

// String implements fmt.Stringer.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	default:
		return fmt.Sprintf("Health(%d)", int32(h))
	}
}

// Transition is one health-state change.
type Transition struct {
	From, To Health
	// Cause is a short human-readable reason ("watchdog: no progress",
	// "start failed: ...", "progress", ...).
	Cause string
	At    time.Time
}

// Config parameterizes a Supervisor over incarnations of type S.
type Config[S any] struct {
	// Start builds a fresh incarnation. Required.
	Start func() (S, error)
	// Stop tears one down; it must release every resource Start acquired
	// and may block until the incarnation's goroutines exit. Required.
	Stop func(S)
	// Pending reports whether the component has outstanding work. The
	// watchdog only fires while Pending is true: an idle endpoint is
	// healthy, not wedged. Nil means never pending (watchdog disabled).
	Pending func() bool

	// Window is the no-progress interval after which a pending
	// incarnation is declared wedged (default 2s).
	Window time.Duration
	// Interval is the watchdog poll period (default Window/8, clamped to
	// [1ms, 250ms]).
	Interval time.Duration

	// BackoffBase and BackoffMax bound the jittered exponential delay
	// between consecutive rebuilds (defaults 50ms and 5s). Under a fault
	// no rebuild cures, Start runs about once every 3/4 BackoffMax.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// Seed fixes the backoff jitter for reproducible tests (0 draws from
	// the Wheel's clock; the resolved value is readable via Seed()).
	Seed int64
	// Wheel paces the watchdog poll and the backoff sleeps, and its clock
	// stamps progress and transitions (default: engine.DefaultWheel()).
	// Sharing a wheel — the process-wide one, or the caller's — keeps
	// supervisors off runtime timers and off tickers of their own, like
	// every other retry in the runtime.
	Wheel *engine.Wheel
	// Metrics receives the session.* family; nil uses metrics.Default().
	Metrics *metrics.Registry
	// OnTransition, when non-nil, observes every health change. It is
	// called from the supervisor's goroutine: keep it fast.
	OnTransition func(Transition)
}

func (c Config[S]) withDefaults() Config[S] {
	if c.Window <= 0 {
		c.Window = 2 * time.Second
	}
	if c.Interval <= 0 {
		c.Interval = c.Window / 8
		if c.Interval > 250*time.Millisecond {
			c.Interval = 250 * time.Millisecond
		}
	}
	if c.Interval < time.Millisecond {
		c.Interval = time.Millisecond
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax < c.BackoffBase {
		c.BackoffMax = 5 * time.Second
		if c.BackoffMax < c.BackoffBase {
			c.BackoffMax = c.BackoffBase
		}
	}
	if c.Wheel == nil {
		c.Wheel = engine.DefaultWheel()
	}
	return c
}

// Stats are the supervisor's own lifetime counters (the registry carries
// the same numbers under session.*, but a registry may be shared between
// supervisors; these are this supervisor's alone).
type Stats struct {
	Restarts      int64 // incarnations built after the first: Generation - 1
	StartFailures int64 // Start calls that returned an error
	Wedges        int64 // watchdog firings
	Transitions   int64 // health transitions
}

// Supervisor keeps one incarnation of a component alive; see the package
// comment. Create with New, then Run; always Close.
type Supervisor[S any] struct {
	cfg Config[S]
	m   supMetrics
	bo  backoff

	mu     sync.Mutex
	cur    S
	has    bool
	gen    uint64
	readyc chan struct{}
	health Health

	progress     atomic.Int64 // commits observed (Progress calls)
	lastProgress atomic.Int64 // unix nanos of the last commit or refresh

	st struct {
		startFailures, wedges, transitions atomic.Int64
	}

	seed int64 // resolved backoff-jitter seed

	started   bool
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once

	// sleep's reusable wheel timer and its wake signal. Owned by the run
	// goroutine; the buffered channel absorbs a firing no one awaits.
	wake  chan struct{}
	timer *engine.Timer
	// failed carries Fail's token: it wakes the watch loop's sleep, and
	// unlike a wake it survives the pre-arm drain.
	failed chan struct{}
}

// New builds a supervisor. It does not start anything: call Run once the
// callbacks' dependencies are wired up.
func New[S any](cfg Config[S]) (*Supervisor[S], error) {
	if cfg.Start == nil || cfg.Stop == nil {
		return nil, fmt.Errorf("supervise: Start and Stop are required")
	}
	cfg = cfg.withDefaults()
	seed := cfg.Seed
	if seed == 0 {
		seed = cfg.Wheel.Clock().Seed()
	}
	s := &Supervisor[S]{
		cfg:    cfg,
		seed:   seed,
		m:      newSupMetrics(cfg.Metrics),
		bo:     backoff{base: cfg.BackoffBase, max: cfg.BackoffMax, rng: clock.SplitMix(seed)},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		wake:   make(chan struct{}, 1),
		failed: make(chan struct{}, 1),
	}
	s.m.health.Set(float64(Healthy))
	s.markProgress()
	return s, nil
}

// Run starts the supervision loop. Call exactly once.
func (s *Supervisor[S]) Run() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		panic("supervise: Run called twice")
	}
	s.started = true
	s.mu.Unlock()
	go s.run()
}

// Progress records one committed unit of work (an OK, a delivery); it
// feeds the watchdog and is safe to call from any goroutine, including
// station taps holding station locks.
func (s *Supervisor[S]) Progress() {
	s.progress.Add(1)
	s.markProgress()
}

func (s *Supervisor[S]) markProgress() {
	s.lastProgress.Store(s.cfg.Wheel.Clock().Now().UnixNano())
}

// Seed returns the resolved backoff-jitter seed — the configured one, or
// the clock-drawn default — so a default-seeded run can still record a
// replayable seed in its repro output.
func (s *Supervisor[S]) Seed() int64 { return s.seed }

// Current blocks until a live incarnation exists and returns it with its
// generation number. It fails with ctx's error when ctx ends and with
// ErrStopped when the supervisor is closed. The caller may race a
// teardown: always treat the incarnation's "closed" errors as "report it
// with Fail, get the next incarnation and retry".
func (s *Supervisor[S]) Current(ctx interface {
	Done() <-chan struct{}
	Err() error
}) (S, uint64, error) {
	var zero S
	for {
		s.mu.Lock()
		if s.has {
			st, gen := s.cur, s.gen
			s.mu.Unlock()
			return st, gen, nil
		}
		if s.readyc == nil {
			s.readyc = make(chan struct{})
		}
		c := s.readyc
		s.mu.Unlock()
		select {
		case <-c:
		case <-ctx.Done():
			return zero, 0, ctx.Err()
		case <-s.stop:
			return zero, 0, ErrStopped
		}
	}
}

// Fail reports incarnation gen dead — its conn closed under it, say — so
// the run loop need not wait out the watchdog: Current stops handing it
// out at once, and the loop replaces it as it would a wedged one. A stale
// gen, one already replaced, is ignored.
func (s *Supervisor[S]) Fail(gen uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.has || s.gen != gen {
		return
	}
	var zero S
	s.cur, s.has = zero, false
	// Under the lock, so uninstall, which follows, finds the token if no
	// sleep took it.
	select {
	case s.failed <- struct{}{}:
	default:
	}
}

// Peek returns the live incarnation without blocking.
func (s *Supervisor[S]) Peek() (S, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur, s.has
}

// Generation returns how many incarnations have been built so far.
func (s *Supervisor[S]) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Health returns the current health state.
func (s *Supervisor[S]) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.health
}

// Stats returns this supervisor's lifetime counters. Restarts is read
// from the generation under the lock install publishes it with, so a
// caller that got generation g from Current reads at least g-1.
func (s *Supervisor[S]) Stats() Stats {
	s.mu.Lock()
	gen := s.gen
	s.mu.Unlock()
	return Stats{
		Restarts:      int64(max(gen, 1) - 1),
		StartFailures: s.st.startFailures.Load(),
		Wedges:        s.st.wedges.Load(),
		Transitions:   s.st.transitions.Load(),
	}
}

// Close stops the loop, tears down the live incarnation and waits for the
// supervisor goroutine.
func (s *Supervisor[S]) Close() error {
	s.closeOnce.Do(func() {
		close(s.stop)
		s.mu.Lock()
		started := s.started
		s.mu.Unlock()
		if started {
			<-s.done
		} else {
			close(s.done)
		}
	})
	return nil
}

// transition moves the health machine, updating metrics and notifying the
// observer. Called only from the supervisor goroutine.
func (s *Supervisor[S]) transition(to Health, cause string) {
	s.mu.Lock()
	from := s.health
	if from == to {
		s.mu.Unlock()
		return
	}
	s.health = to
	s.mu.Unlock()

	s.m.health.Set(float64(to))
	s.m.transitions.Inc()
	s.st.transitions.Add(1)
	if s.cfg.OnTransition != nil {
		s.cfg.OnTransition(Transition{From: from, To: to, Cause: cause, At: s.cfg.Wheel.Clock().Now()})
	}
}

// install publishes a freshly started incarnation.
func (s *Supervisor[S]) install(st S) {
	s.mu.Lock()
	s.cur, s.has = st, true
	s.gen++
	first := s.gen == 1
	if s.readyc != nil {
		close(s.readyc)
		s.readyc = nil
	}
	s.mu.Unlock()
	if !first {
		s.m.restarts.Inc()
	}
}

// uninstall withdraws the incarnation before tearing it down, so no new
// Current caller can pick up a dying station, and takes back a token
// Fail left that no sleep took, so it cannot cut the backoff short.
func (s *Supervisor[S]) uninstall() {
	var zero S
	s.mu.Lock()
	s.cur, s.has = zero, false
	select {
	case <-s.failed:
	default:
	}
	s.mu.Unlock()
}

// sleep waits d on the shared wheel, or until Fail withdraws the
// incarnation, returning false if the supervisor is closed meanwhile.
// Only the run goroutine calls it, so the one reusable timer and wake
// channel need no locking; a sleep cut short may leave a stale firing
// behind, which the pre-arm drain (and the channel's buffer) absorbs.
func (s *Supervisor[S]) sleep(d time.Duration) bool {
	if d <= 0 {
		select {
		case <-s.stop:
			return false
		default:
			return true
		}
	}
	select {
	case <-s.wake:
	default:
	}
	if s.timer == nil {
		s.timer = s.cfg.Wheel.AfterFunc(d, func() {
			select {
			case s.wake <- struct{}{}:
			default:
			}
		})
	} else {
		s.timer.Reset(d)
	}
	select {
	case <-s.wake:
		return true
	case <-s.failed:
		return true
	case <-s.stop:
		return false
	}
}

// run is the supervision loop: start an incarnation, watch it, tear it
// down when wedged, back off, repeat.
func (s *Supervisor[S]) run() {
	defer close(s.done)
	defer func() {
		if s.timer != nil {
			s.timer.Stop()
		}
	}()
	consecutive := 0 // fruitless restarts in a row (backoff exponent)
	for {
		st, err := s.cfg.Start()
		if err != nil {
			s.m.startFailures.Inc()
			s.st.startFailures.Add(1)
			consecutive++
			s.transition(Degraded, "start failed: "+err.Error())
			if !s.sleep(s.bo.next(consecutive)) {
				return
			}
			continue
		}
		s.install(st)
		s.markProgress() // grace: the window counts from the incarnation's birth
		born := s.cfg.Wheel.Clock().Now()
		genProgress := s.progress.Load()

		cause := "watchdog: no progress"
		for {
			if !s.sleep(s.cfg.Interval) {
				s.uninstall()
				s.cfg.Stop(st)
				return
			}
			if _, live := s.Peek(); !live { // Fail withdrew it
				cause = "station failed"
				break
			}
			now := s.cfg.Wheel.Clock().Now()
			if p := s.progress.Load(); p != genProgress {
				// Work is committing: the incarnation earned its keep.
				genProgress = p
				consecutive = 0
				s.transition(Healthy, "progress")
				continue
			}
			if s.cfg.Pending == nil || !s.cfg.Pending() {
				// Idle is not wedged; keep the window from firing the
				// instant pending work appears after a quiet stretch.
				s.markProgress()
				if now.Sub(born) >= s.cfg.Window {
					// Surviving a full window with nothing pending is the
					// absence of the fault the last restart was for.
					consecutive = 0
					s.transition(Healthy, "idle")
				}
				continue
			}
			if now.Sub(time.Unix(0, s.lastProgress.Load())) >= s.cfg.Window {
				s.m.wedges.Inc()
				s.st.wedges.Add(1)
				break
			}
		}

		s.uninstall()
		s.cfg.Stop(st)
		consecutive++
		s.transition(Degraded, cause)
		if !s.sleep(s.bo.next(consecutive)) {
			return
		}
	}
}

// The supervisor's session.* metric names, as declared constants: the
// registry creates metrics on first use, so a typo'd literal would
// silently fork a counter (enforced by the metricname analyzer).
const (
	mSessionRestarts      = "session.restarts"
	mSessionStartFailures = "session.start_failures"
	mSessionWedges        = "session.wedges"
	mSessionTransitions   = "session.health_transitions"
	mSessionHealth        = "session.health"
)

// supMetrics are the supervisor's registry hooks (the session.* family).
type supMetrics struct {
	restarts      *metrics.Counter // incarnations rebuilt after the first
	startFailures *metrics.Counter // Start errors
	wedges        *metrics.Counter // watchdog firings
	transitions   *metrics.Counter // health transitions
	health        *metrics.Gauge   // current health (0 healthy, 1 degraded)
}

func newSupMetrics(r *metrics.Registry) supMetrics {
	if r == nil {
		r = metrics.Default()
	}
	return supMetrics{
		restarts:      r.Counter(mSessionRestarts),
		startFailures: r.Counter(mSessionStartFailures),
		wedges:        r.Counter(mSessionWedges),
		transitions:   r.Counter(mSessionTransitions),
		health:        r.Gauge(mSessionHealth),
	}
}
