package supervise

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ghm/internal/metrics"
)

func TestBackoffGrowthAndJitter(t *testing.T) {
	b := backoff{base: 10 * time.Millisecond, max: 400 * time.Millisecond, rng: 1}
	prevCeil := time.Duration(0)
	for attempt := 1; attempt <= 12; attempt++ {
		ceil := b.base << (attempt - 1)
		if ceil > b.max || ceil <= 0 {
			ceil = b.max
		}
		for i := 0; i < 50; i++ {
			d := b.next(attempt)
			if d < ceil/2 || d > ceil {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, ceil/2, ceil)
			}
		}
		if ceil < prevCeil {
			t.Fatalf("attempt %d: ceiling shrank %v -> %v", attempt, prevCeil, ceil)
		}
		prevCeil = ceil
	}
	// Way past the cap the shift must not overflow.
	if d := b.next(1000); d < b.max/2 || d > b.max {
		t.Fatalf("capped delay %v outside [%v, %v]", d, b.max/2, b.max)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	b := breaker{threshold: 3, window: time.Minute, cooldown: 10 * time.Second}

	for i := 0; i < 2; i++ {
		if v, _ := b.allow(now); v != admitNormal {
			t.Fatalf("closed breaker refused restart %d", i)
		}
		if b.failure(now) {
			t.Fatalf("failure %d opened breaker before threshold", i)
		}
		now = now.Add(time.Second)
	}
	if !b.failure(now) {
		t.Fatal("threshold failure did not open breaker")
	}
	if v, wait := b.allow(now); v != admitNone || wait <= 0 {
		t.Fatalf("open breaker admitted restart: v=%v wait=%v", v, wait)
	}

	// Cooldown elapses: exactly one probe is admitted.
	now = now.Add(11 * time.Second)
	if v, _ := b.allow(now); v != admitProbe {
		t.Fatal("half-open breaker did not admit a probe")
	}
	if v, _ := b.allow(now); v != admitNone {
		t.Fatal("half-open breaker admitted a second probe")
	}

	// Probe failure re-opens immediately.
	if !b.failure(now) {
		t.Fatal("probe failure did not re-open breaker")
	}
	now = now.Add(11 * time.Second)
	if v, _ := b.allow(now); v != admitProbe {
		t.Fatal("second cooldown did not admit a probe")
	}
	// Probe success closes.
	if !b.success() {
		t.Fatal("probe success did not report closing")
	}
	if v, _ := b.allow(now); v != admitNormal {
		t.Fatal("closed breaker refused restart after probe success")
	}
	// Success from closed is not a "close" event.
	if b.success() {
		t.Fatal("success while closed reported a breaker close")
	}
}

func TestBreakerWindowPrunesOldFailures(t *testing.T) {
	b := breaker{threshold: 3, window: time.Second, cooldown: time.Second}
	now := time.Unix(0, 0)
	b.failure(now)
	b.failure(now.Add(100 * time.Millisecond))
	// The first two fall out of the window before the next failures.
	now = now.Add(2 * time.Second)
	if b.failure(now) {
		t.Fatal("stale failures counted toward threshold")
	}
	if b.failure(now.Add(10 * time.Millisecond)) {
		t.Fatal("opened with only two in-window failures")
	}
	if !b.failure(now.Add(20 * time.Millisecond)) {
		t.Fatal("three in-window failures did not open")
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := breaker{threshold: -1}
	now := time.Now()
	for i := 0; i < 100; i++ {
		if b.failure(now) {
			t.Fatal("disabled breaker opened")
		}
	}
	if v, _ := b.allow(now); v != admitNormal {
		t.Fatal("disabled breaker blocked a restart")
	}
}

// fakeStation is a controllable incarnation: progress is committed by the
// test calling sup.Progress, and the station records its own teardown.
type fakeStation struct {
	id      int
	stopped atomic.Bool
}

type fakeFactory struct {
	mu       sync.Mutex
	built    []*fakeStation
	failNext atomic.Int64 // number of upcoming Start calls to fail
}

func (f *fakeFactory) start() (*fakeStation, error) {
	if f.failNext.Load() > 0 {
		f.failNext.Add(-1)
		return nil, errors.New("boom")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	st := &fakeStation{id: len(f.built) + 1}
	f.built = append(f.built, st)
	return st, nil
}

func (f *fakeFactory) stop(st *fakeStation) { st.stopped.Store(true) }

func (f *fakeFactory) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.built)
}

// transitionLog collects health transitions thread-safely.
type transitionLog struct {
	mu sync.Mutex
	ts []Transition
}

func (l *transitionLog) add(tr Transition) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ts = append(l.ts, tr)
}

func (l *transitionLog) snapshot() []Transition {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Transition(nil), l.ts...)
}

func waitFor(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestWatchdogRestartsWedgedStation(t *testing.T) {
	f := &fakeFactory{}
	pending := atomic.Bool{}
	pending.Store(true)
	tl := &transitionLog{}
	sup, err := New(Config[*fakeStation]{
		Start:            f.start,
		Stop:             f.stop,
		Pending:          pending.Load,
		Window:           40 * time.Millisecond,
		Interval:         5 * time.Millisecond,
		BackoffBase:      time.Millisecond,
		BackoffMax:       4 * time.Millisecond,
		BreakerThreshold: 100, // keep the breaker out of this test
		Seed:             7,
		Metrics:          metrics.New(),
		OnTransition:     tl.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Run()
	defer sup.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st1, gen1, err := sup.Current(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gen1 != 1 || st1.id != 1 {
		t.Fatalf("first incarnation: gen=%d id=%d", gen1, st1.id)
	}

	// No progress while pending: the watchdog must tear it down and build
	// a successor.
	waitFor(t, "restart", func() bool { return sup.Stats().Restarts >= 1 })
	if !st1.stopped.Load() {
		t.Error("wedged incarnation was not stopped")
	}
	st2, gen2, err := sup.Current(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gen2 < 2 || st2.id == st1.id {
		t.Fatalf("successor not fresh: gen=%d id=%d", gen2, st2.id)
	}
	if sup.Stats().Wedges < 1 {
		t.Errorf("wedges not counted: %+v", sup.Stats())
	}

	// Commit progress: health returns to Healthy and restarts stop.
	sup.Progress()
	waitFor(t, "healthy", func() bool { return sup.Health() == Healthy })
	seen := tl.snapshot()
	var sawDegraded bool
	for _, tr := range seen {
		if tr.To == Degraded || tr.To == Partitioned {
			sawDegraded = true
		}
	}
	if !sawDegraded {
		t.Errorf("no degraded transition recorded: %+v", seen)
	}
}

// TestFailReplacesAtOnce: Fail withdraws the named incarnation at once
// and the loop builds its successor well inside the watchdog window,
// without counting a wedge; a stale generation is ignored.
func TestFailReplacesAtOnce(t *testing.T) {
	f := &fakeFactory{}
	tl := &transitionLog{}
	sup, err := New(Config[*fakeStation]{
		Start:        f.start,
		Stop:         f.stop,
		Pending:      func() bool { return true },
		Window:       time.Hour, // the watchdog never fires here
		Interval:     time.Hour, // nor polls: only Fail wakes the loop
		BackoffBase:  time.Millisecond,
		BackoffMax:   2 * time.Millisecond,
		Seed:         8,
		Metrics:      metrics.New(),
		OnTransition: tl.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Run()
	defer sup.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st1, gen1, err := sup.Current(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sup.Fail(gen1)
	st2, gen2, err := sup.Current(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gen2 != gen1+1 || st2 == st1 || !st1.stopped.Load() {
		t.Fatalf("successor: gen %d -> %d, first stopped %v", gen1, gen2, st1.stopped.Load())
	}
	sup.Fail(gen1) // stale: the live incarnation stays
	if st, ok := sup.Peek(); !ok || st != st2 {
		t.Fatal("a stale Fail withdrew the live incarnation")
	}
	if st := sup.Stats(); st.Wedges != 0 || st.Restarts != 1 {
		t.Errorf("stats %+v, want 1 restart and no wedge", st)
	}
	if ts := tl.snapshot(); len(ts) == 0 || ts[0].To != Degraded || ts[0].Cause != "station failed" {
		t.Errorf("transitions %+v, want Degraded on \"station failed\" first", ts)
	}
}

func TestIdleStationStaysHealthy(t *testing.T) {
	f := &fakeFactory{}
	sup, err := New(Config[*fakeStation]{
		Start:    f.start,
		Stop:     f.stop,
		Pending:  func() bool { return false },
		Window:   30 * time.Millisecond,
		Interval: 5 * time.Millisecond,
		Seed:     7,
		Metrics:  metrics.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Run()
	defer sup.Close()

	time.Sleep(150 * time.Millisecond) // several windows of idleness
	if got := sup.Stats(); got.Wedges != 0 || got.Restarts != 0 {
		t.Fatalf("idle station was restarted: %+v", got)
	}
	if h := sup.Health(); h != Healthy {
		t.Fatalf("idle health = %v", h)
	}
	if f.count() != 1 {
		t.Fatalf("built %d incarnations for an idle endpoint", f.count())
	}
}

func TestBreakerOpensOnPersistentStartFailure(t *testing.T) {
	f := &fakeFactory{}
	f.failNext.Store(1 << 30) // fail every Start until told otherwise
	tl := &transitionLog{}
	reg := metrics.New()
	sup, err := New(Config[*fakeStation]{
		Start:            f.start,
		Stop:             f.stop,
		Pending:          func() bool { return true },
		Window:           20 * time.Millisecond,
		Interval:         2 * time.Millisecond,
		BackoffBase:      time.Millisecond,
		BackoffMax:       2 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerWindow:    10 * time.Second,
		BreakerCooldown:  50 * time.Millisecond,
		Seed:             11,
		Metrics:          reg,
		OnTransition:     tl.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Run()
	defer sup.Close()

	waitFor(t, "breaker open", func() bool { return sup.Stats().BreakerOpens >= 1 })
	waitFor(t, "down health", func() bool { return sup.Health() == Down })
	if sup.Stats().StartFailures < 3 {
		t.Errorf("start failures not counted: %+v", sup.Stats())
	}

	// Let the cooldown elapse and the probe succeed: the incarnation
	// builds, progress closes the breaker, health returns to Healthy.
	f.failNext.Store(0)
	waitFor(t, "probe", func() bool { return sup.Stats().BreakerProbes >= 1 })
	waitFor(t, "incarnation", func() bool { _, ok := sup.Peek(); return ok })
	sup.Progress()
	waitFor(t, "breaker close", func() bool { return sup.Stats().BreakerCloses >= 1 })
	waitFor(t, "healthy", func() bool { return sup.Health() == Healthy })

	var sawDown bool
	for _, tr := range tl.snapshot() {
		if tr.To == Down {
			sawDown = true
		}
	}
	if !sawDown {
		t.Error("no Down transition recorded")
	}
}

func TestPartitionedAfterConsecutiveWedges(t *testing.T) {
	f := &fakeFactory{}
	tl := &transitionLog{}
	sup, err := New(Config[*fakeStation]{
		Start:            f.start,
		Stop:             f.stop,
		Pending:          func() bool { return true },
		Window:           15 * time.Millisecond,
		Interval:         2 * time.Millisecond,
		BackoffBase:      time.Millisecond,
		BackoffMax:       2 * time.Millisecond,
		BreakerThreshold: 100,
		PartitionAfter:   2,
		Seed:             13,
		Metrics:          metrics.New(),
		OnTransition:     tl.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Run()
	defer sup.Close()

	waitFor(t, "two wedges", func() bool { return sup.Stats().Wedges >= 2 })
	waitFor(t, "partitioned", func() bool {
		for _, tr := range tl.snapshot() {
			if tr.To == Partitioned {
				return true
			}
		}
		return false
	})
}

func TestCurrentUnblocksOnClose(t *testing.T) {
	f := &fakeFactory{}
	f.failNext.Store(1 << 30)
	sup, err := New(Config[*fakeStation]{
		Start:       f.start,
		Stop:        f.stop,
		BackoffBase: 50 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		Seed:        3,
		Metrics:     metrics.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Run()

	errc := make(chan error, 1)
	go func() {
		_, _, err := sup.Current(context.Background())
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	sup.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("Current after Close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Current did not unblock on Close")
	}
}

func TestCurrentHonorsContext(t *testing.T) {
	f := &fakeFactory{}
	f.failNext.Store(1 << 30)
	sup, err := New(Config[*fakeStation]{
		Start:       f.start,
		Stop:        f.stop,
		BackoffBase: 50 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		Seed:        3,
		Metrics:     metrics.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Run()
	defer sup.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := sup.Current(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Current with expired ctx: %v", err)
	}
}

func TestCloseBeforeRun(t *testing.T) {
	f := &fakeFactory{}
	sup, err := New(Config[*fakeStation]{Start: f.start, Stop: f.stop, Metrics: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Close(); err != nil {
		t.Fatal(err)
	}
	if f.count() != 0 {
		t.Fatal("unrun supervisor built an incarnation")
	}
}

func TestHealthString(t *testing.T) {
	for h, want := range map[Health]string{
		Healthy: "healthy", Degraded: "degraded",
		Partitioned: "partitioned", Down: "down", Health(9): "Health(9)",
	} {
		if got := h.String(); got != want {
			t.Errorf("Health(%d).String() = %q, want %q", h, got, want)
		}
	}
}

// TestIdleProbeClosesBreaker is the probe-accounting regression: a
// half-open probe incarnation that comes up with nothing pending must
// still close the breaker after surviving a full idle window. Before the
// fix the breaker stayed half-open with the probe ticket out forever,
// and one later unrelated wedge re-opened it instantly instead of
// counting toward the threshold.
func TestIdleProbeClosesBreaker(t *testing.T) {
	f := &fakeFactory{}
	f.failNext.Store(1 << 30) // fail every Start until told otherwise
	pending := atomic.Bool{}
	sup, err := New(Config[*fakeStation]{
		Start:            f.start,
		Stop:             f.stop,
		Pending:          pending.Load,
		Window:           30 * time.Millisecond,
		Interval:         3 * time.Millisecond,
		BackoffBase:      time.Millisecond,
		BackoffMax:       2 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerWindow:    10 * time.Second,
		BreakerCooldown:  40 * time.Millisecond,
		Seed:             13,
		Metrics:          metrics.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Run()
	defer sup.Close()

	waitFor(t, "breaker open", func() bool { return sup.Stats().BreakerOpens >= 1 })

	// Heal the fault. The probe incarnation builds, finds nothing
	// pending, and must close the breaker by sitting idle a full window —
	// no progress commit ever happens.
	f.failNext.Store(0)
	waitFor(t, "probe", func() bool { return sup.Stats().BreakerProbes >= 1 })
	waitFor(t, "breaker close", func() bool { return sup.Stats().BreakerCloses >= 1 })
	waitFor(t, "healthy", func() bool { return sup.Health() == Healthy })

	// The breaker must be genuinely closed: a single later wedge counts
	// toward the threshold instead of re-opening as a failed probe.
	pending.Store(true)
	waitFor(t, "wedge", func() bool { return sup.Stats().Wedges >= 1 })
	pending.Store(false)
	time.Sleep(60 * time.Millisecond)
	if n := sup.Stats().BreakerOpens; n != 1 {
		t.Fatalf("one wedge after a successful idle probe re-opened the breaker: opens=%d", n)
	}
}
