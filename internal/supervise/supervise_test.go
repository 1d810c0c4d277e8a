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
		Start:        f.start,
		Stop:         f.stop,
		Pending:      pending.Load,
		Window:       40 * time.Millisecond,
		Interval:     5 * time.Millisecond,
		BackoffBase:  time.Millisecond,
		BackoffMax:   4 * time.Millisecond,
		Seed:         7,
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
		if tr.To == Degraded {
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
		Healthy: "healthy", Degraded: "degraded", Health(2): "Health(2)",
	} {
		if got := h.String(); got != want {
			t.Errorf("Health(%d).String() = %q, want %q", h, got, want)
		}
	}
}

// TestStatsRestartsMatchGeneration: Restarts is read with the generation
// it counts, so from the moment generation g is published Stats reads g-1
// restarts, never fewer. A count bumped after install had published the
// incarnation let a caller that had already confirmed work on generation
// 2 read 0; the test spins on Generation to catch that gap.
func TestStatsRestartsMatchGeneration(t *testing.T) {
	f := &fakeFactory{}
	sup, err := New(Config[*fakeStation]{
		Start:       f.start,
		Stop:        f.stop,
		Window:      time.Hour,
		Interval:    time.Hour, // only Fail wakes the loop
		BackoffBase: 100 * time.Microsecond,
		BackoffMax:  100 * time.Microsecond,
		Seed:        5,
		Metrics:     metrics.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Run()
	defer sup.Close()

	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < 200; i++ {
		gen := sup.Generation()
		for gen == uint64(i) {
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: no incarnation (stats %+v)", i, sup.Stats())
			}
			gen = sup.Generation()
		}
		if st := sup.Stats(); st.Restarts != int64(gen)-1 {
			t.Fatalf("cycle %d: generation %d, Restarts %d", i, gen, st.Restarts)
		}
		sup.Fail(gen)
	}
}

// TestBackoffAloneBoundsRestartRate: under a Start that always fails the
// capped, jittered backoff is the one governor. Each capped delay lies in
// [BackoffMax/2, BackoffMax], so past the ramp the attempts run at most
// two and at least one per BackoffMax; the supervisor never gives up, its
// health stays Degraded, and once Start heals an incarnation is up within
// one capped delay. An idle window later it is Healthy again.
func TestBackoffAloneBoundsRestartRate(t *testing.T) {
	const (
		base     = time.Millisecond
		capped   = 20 * time.Millisecond
		window   = 100 * time.Millisecond
		interval = 25 * time.Millisecond
		run      = 500 * time.Millisecond
	)
	f := &fakeFactory{}
	f.failNext.Store(1 << 30) // fail every Start until told otherwise
	tl := &transitionLog{}
	sup, err := New(Config[*fakeStation]{
		Start:        f.start,
		Stop:         f.stop,
		Window:       window,
		Interval:     interval,
		BackoffBase:  base,
		BackoffMax:   capped,
		Seed:         11,
		Metrics:      metrics.New(),
		OnTransition: tl.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The ramp: the first attempt and one after each delay below the cap.
	ramp := int64(1)
	for d := base; d < capped; d <<= 1 {
		ramp++
	}

	began := time.Now()
	sup.Run()
	defer sup.Close()
	time.Sleep(run)
	before := time.Since(began)
	n := sup.Stats().StartFailures
	after := time.Since(began)
	t.Logf("%d start failures in %v", n, after)
	if most := ramp + int64(2*after/capped); n > most {
		t.Errorf("%d start failures in %v, want at most %d", n, after, most)
	}
	if least := int64(before / capped); n < least {
		t.Errorf("%d start failures in %v, want at least %d: the supervisor stopped trying", n, before, least)
	}
	if h := sup.Health(); h != Degraded {
		t.Errorf("health %v under a failing Start, want degraded", h)
	}
	if ts := tl.snapshot(); len(ts) != 1 || ts[0].To != Degraded {
		t.Errorf("transitions %+v, want one, to degraded", ts)
	}

	f.failNext.Store(0)
	ctx, cancel := context.WithTimeout(context.Background(), capped+interval)
	defer cancel()
	if _, _, err := sup.Current(ctx); err != nil {
		t.Fatalf("no incarnation within %v of the heal: %v (stats %+v)", capped+interval, err, sup.Stats())
	}
	waitFor(t, "healthy", func() bool { return sup.Health() == Healthy })
	if ts := tl.snapshot(); ts[len(ts)-1].Cause != "idle" {
		t.Errorf("transitions %+v, want the last on \"idle\"", ts)
	}
}
