package ghm_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ghm"
	"ghm/internal/testutil"
)

// sessionRig wires a supervised Session to a plain Receiver over a
// shared in-memory pipe with faults f.
type sessionRig struct {
	link  *ghm.SharedLink
	r     *ghm.Receiver
	s     *ghm.Session
	drain sync.WaitGroup

	mu  sync.Mutex
	got []string
}

func (g *sessionRig) delivered() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.got...)
}

func newSessionRig(t *testing.T, f ghm.PipeFaults, mut func(*ghm.SessionConfig)) *sessionRig {
	t.Helper()
	a, b := ghm.Pipe(f)
	g := &sessionRig{link: ghm.Share(a)}

	var err error
	g.r, err = ghm.NewReceiver(b, ghm.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	g.drain.Add(1)
	go func() {
		defer g.drain.Done()
		for {
			msg, err := g.r.Recv(testCtx(t))
			if err != nil {
				return
			}
			g.mu.Lock()
			g.got = append(g.got, string(msg))
			g.mu.Unlock()
		}
	}()

	cfg := ghm.SessionConfig{
		Dial:              g.link.Dial,
		Options:           []ghm.Option{ghm.WithSeed(3)},
		WatchdogWindow:    150 * time.Millisecond,
		WatchdogInterval:  10 * time.Millisecond,
		RestartBackoff:    5 * time.Millisecond,
		RestartBackoffMax: 40 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	g.s, err = ghm.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		g.s.Close()
		g.r.Close()
		g.link.Close()
		g.drain.Wait()
	})
	return g
}

// waitDelivered waits up to 5 s for the rig's receiver to have delivered
// n payloads and returns what it delivered.
func (g *sessionRig) waitDelivered(t *testing.T, n int) []string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(g.delivered()) < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return g.delivered()
}

// waitFirstOccurrences waits up to 5 s for the rig's receiver to have
// delivered n distinct payloads and returns the first occurrence of each,
// in delivery order.
func (g *sessionRig) waitFirstOccurrences(t *testing.T, n int) []string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		seen := make(map[string]bool)
		var first []string
		for _, m := range g.delivered() {
			if !seen[m] {
				seen[m] = true
				first = append(first, m)
			}
		}
		if len(first) >= n || time.Now().After(deadline) {
			return first
		}
		time.Sleep(time.Millisecond)
	}
}

// enqueueAll enqueues n payloads named prefix-00, prefix-01, ... and
// returns them in order.
func (g *sessionRig) enqueueAll(t *testing.T, prefix string, n int) []string {
	t.Helper()
	want := make([]string, n)
	for i := range want {
		want[i] = fmt.Sprintf("%s-%02d", prefix, i)
		if _, err := g.s.Enqueue([]byte(want[i])); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

func TestSessionDelivers(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    ghm.PipeFaults
	}{
		{"perfect", ghm.PipeFaults{Seed: 1}},
		{"lossy-dup", ghm.PipeFaults{Loss: 0.25, DupProb: 0.2, Seed: 71}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newSessionRig(t, tc.f, nil)
			const n = 15
			want := g.enqueueAll(t, "s", n)
			if err := g.s.Flush(testCtx(t)); err != nil {
				t.Fatal(err)
			}
			if st := g.s.Stats(); st.Sent != n || st.Pending != 0 {
				t.Fatalf("stats: %+v", st)
			}
			// No station crashed, so delivery is exactly once, in order.
			if d := g.waitDelivered(t, n); !slices.Equal(d, want) {
				t.Fatalf("delivered %v, want %v", d, want)
			}
			if h := g.s.Health(); h != ghm.HealthHealthy {
				t.Fatalf("health %v", h)
			}
		})
	}
}

func TestSessionRecoversFromCrashes(t *testing.T) {
	// Crashes land mid-transfer on a lossy link while the rig's receiver
	// drains concurrently. Across crashes delivery is at-least-once, so a
	// wiped payload may arrive twice; the first occurrences must be every
	// payload, in order.
	g := newSessionRig(t, ghm.PipeFaults{Loss: 0.3, Seed: 72}, nil)
	const n = 20
	want := make([]string, n)
	for i := range want {
		want[i] = fmt.Sprintf("c-%02d", i)
		if _, err := g.s.Enqueue([]byte(want[i])); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			g.s.Crash()
		}
	}
	if err := g.s.Flush(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	if st := g.s.Stats(); st.Sent != n {
		t.Fatalf("stats: %+v", st)
	}
	if first := g.waitFirstOccurrences(t, n); !slices.Equal(first, want) {
		t.Fatalf("first occurrences %v, want %v", first, want)
	}
}

func TestQueueResubmitsAcrossCrash(t *testing.T) {
	// Crashes come from another goroutine while payloads are enqueued and
	// flushed on a lossy link, so some land mid-transfer; the session's
	// queue must resubmit what they wiped. Delivery is at-least-once: the
	// first occurrences must be every payload, in order.
	g := newSessionRig(t, ghm.PipeFaults{Loss: 0.3, Seed: 72}, nil)
	const n = 20
	crashed := make(chan struct{})
	go func() {
		defer close(crashed)
		for i := 0; i < 3; i++ {
			time.Sleep(2 * time.Millisecond)
			g.s.Crash()
		}
	}()
	want := g.enqueueAll(t, "c", n)
	if err := g.s.Flush(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	<-crashed
	if err := g.s.Flush(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	if first := g.waitFirstOccurrences(t, n); !slices.Equal(first, want) {
		t.Fatalf("first occurrences %v, want %v", first, want)
	}
	if st := g.s.Stats(); st.Resubmits == 0 {
		t.Log("note: no crash landed mid-transfer this run")
	}
}

func TestSessionWALSurvivesReopen(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "session.wal")

	// First life: a silent link delivers nothing. Every payload Enqueue
	// accepted is in the WAL (fsynced, with WALSync) when the session
	// closes.
	g1 := newSessionRig(t, ghm.PipeFaults{Loss: 1, Seed: 73}, func(c *ghm.SessionConfig) {
		c.WAL, c.WALSync = wal, true
	})
	want := g1.enqueueAll(t, "w", 5)
	if err := g1.s.Close(); err != nil {
		t.Fatal(err)
	}
	if d := g1.delivered(); len(d) != 0 {
		t.Fatalf("a silent link delivered %v", d)
	}

	// Second life: a session on the same path over a working link drains
	// the recovered backlog, in order.
	g2 := newSessionRig(t, ghm.PipeFaults{Seed: 74}, func(c *ghm.SessionConfig) { c.WAL = wal })
	if err := g2.s.Flush(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	if st := g2.s.Stats(); st.Sent != len(want) || st.Pending != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if d := g2.waitDelivered(t, len(want)); !slices.Equal(d, want) {
		t.Fatalf("recovered %v, want %v", d, want)
	}
}

func TestSessionMaxAttempts(t *testing.T) {
	// A dead link and a crash loop: every transfer fails with a crash, and
	// MaxAttempts 2 must turn that into a fatal error that stays set.
	g := newSessionRig(t, ghm.PipeFaults{Loss: 1, Seed: 75}, func(c *ghm.SessionConfig) {
		c.MaxAttempts = 2
	})
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				g.s.Crash()
			}
		}
	}()
	if _, err := g.s.Enqueue([]byte("hopeless")); err != nil {
		t.Fatal(err)
	}
	err := g.s.Flush(testCtx(t))
	close(stop)
	<-stopped
	if err == nil {
		t.Fatal("Flush succeeded on a dead link with bounded attempts")
	}
	if g.s.Err() == nil {
		t.Fatal("Err is nil after Flush failed fatally")
	}
	if err := g.s.Flush(testCtx(t)); err == nil {
		t.Fatal("a second Flush succeeded after the fatal error")
	}
	if g.s.Err() == nil {
		t.Fatal("Err was cleared")
	}
}

func TestSessionHealsWedgedLink(t *testing.T) {
	g := newSessionRig(t, ghm.PipeFaults{Seed: 1}, nil)

	// Confirm one message so the first incarnation is demonstrably live.
	if _, err := g.s.Enqueue([]byte("warmup")); err != nil {
		t.Fatal(err)
	}
	if err := g.s.Flush(testCtx(t)); err != nil {
		t.Fatal(err)
	}

	sub := g.s.Subscribe()
	g.link.Wedge() // half-dead socket: sends vanish, no error surfaces

	if _, err := g.s.Enqueue([]byte("stuck-then-saved")); err != nil {
		t.Fatal(err)
	}
	if err := g.s.Flush(testCtx(t)); err != nil {
		t.Fatalf("flush across wedge: %v (stats %+v)", err, g.s.Stats())
	}

	st := g.s.Stats()
	if st.Wedges < 1 || st.Restarts < 1 || st.Sent != 2 {
		t.Fatalf("watchdog did not heal: %+v", st)
	}
	// The health machine must have left Healthy and come back.
	var sawDegraded, sawHealthy bool
	for !(sawDegraded && sawHealthy) {
		select {
		case tr := <-sub:
			if tr.To == ghm.HealthDegraded {
				sawDegraded = true
			}
			if sawDegraded && tr.To == ghm.HealthHealthy {
				sawHealthy = true
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("transitions incomplete: degraded=%v healthy=%v", sawDegraded, sawHealthy)
		}
	}
}

func TestSessionRequiresDial(t *testing.T) {
	if _, err := ghm.NewSession(ghm.SessionConfig{}); err == nil {
		t.Fatal("missing Dial accepted")
	}
}

func TestHealthStrings(t *testing.T) {
	for h, want := range map[ghm.Health]string{
		ghm.HealthHealthy:  "healthy",
		ghm.HealthDegraded: "degraded",
	} {
		if got := h.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(h), got, want)
		}
	}
}

// TestSessionSubscribeAbandonedDoesNotLeak is the late-unsubscribe leak
// regression: a subscriber that stops draining while transitions keep
// flowing must neither block the supervisor nor outlive Close. A
// forwarder that sent with a blocking send once hung forever as soon as
// the abandoned channel's buffer filled.
func TestSessionSubscribeAbandonedDoesNotLeak(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	g := newSessionRig(t, ghm.PipeFaults{Seed: 1}, func(c *ghm.SessionConfig) {
		c.WatchdogWindow = 50 * time.Millisecond
		c.WatchdogInterval = 5 * time.Millisecond
	})
	// Warm up so the first incarnation has demonstrably attached its link
	// view — Wedge targets the current view.
	if _, err := g.s.Enqueue([]byte("warmup")); err != nil {
		t.Fatal(err)
	}
	if err := g.s.Flush(testCtx(t)); err != nil {
		t.Fatal(err)
	}

	abandoned := g.s.Subscribe()
	_ = abandoned // registered, never drained

	// Drive well over a buffer's worth of transitions.
	g.wedgeCycles(t, 12)
	g.s.Close() // must close the abandoned channel
	select {
	case _, ok := <-abandoned:
		if ok {
			return // buffered transition; fine — channel closes behind it
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned subscription never closed")
	}
}

// wedgeCycles wedges the rig's link n times, waiting each time for the
// watchdog to fire and for a flush on the successor: every cycle moves
// the health machine away from Healthy and back.
func (g *sessionRig) wedgeCycles(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		before := g.s.Stats().Wedges
		g.link.Wedge()
		if _, err := g.s.Enqueue([]byte(fmt.Sprintf("wedge-%02d", i))); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for g.s.Stats().Wedges == before {
			if time.Now().After(deadline) {
				t.Fatalf("watchdog never fired on cycle %d (stats %+v)", i, g.s.Stats())
			}
			time.Sleep(2 * time.Millisecond)
		}
		if err := g.s.Flush(testCtx(t)); err != nil {
			t.Fatalf("flush cycle %d: %v (stats %+v)", i, err, g.s.Stats())
		}
	}
}

// TestSessionSubscribeLaggingKeepsNewest: a subscriber that never drains
// loses the oldest transitions, not the newest, so once the session
// settles the last transition it holds is the current health.
func TestSessionSubscribeLaggingKeepsNewest(t *testing.T) {
	g := newSessionRig(t, ghm.PipeFaults{Seed: 1}, func(c *ghm.SessionConfig) {
		c.WatchdogWindow = 50 * time.Millisecond
		c.WatchdogInterval = 5 * time.Millisecond
	})
	if _, err := g.s.Enqueue([]byte("warmup")); err != nil {
		t.Fatal(err)
	}
	if err := g.s.Flush(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	lagging := g.s.Subscribe()
	g.wedgeCycles(t, 10) // 20 transitions or more: past the buffer

	// A closed link: every rebuild fails, and the health settles on
	// Degraded.
	g.link.Close()
	if _, err := g.s.Enqueue([]byte("into the void")); err != nil {
		t.Fatal(err)
	}
	failures := g.s.Stats().StartFailures
	deadline := time.Now().Add(10 * time.Second)
	for g.s.Stats().StartFailures < failures+3 || g.s.Health() != ghm.HealthDegraded {
		if time.Now().After(deadline) {
			t.Fatalf("health %v, want degraded after 3 failed starts (stats %+v)", g.s.Health(), g.s.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	g.s.Close() // the supervisor stops: every fan-out is done

	var last ghm.HealthTransition
	held := 0
	for last = range lagging {
		held++
	}
	if h := g.s.Health(); held == 0 || last.To != h {
		t.Fatalf("subscriber holds %d transitions ending in %v; health is %v", held, last.To, h)
	}
}

// TestSessionSubscribeAfterCloseReturnsClosedChannel: subscribing to a
// closed session yields a closed channel, not one that never closes.
func TestSessionSubscribeAfterCloseReturnsClosedChannel(t *testing.T) {
	g := newSessionRig(t, ghm.PipeFaults{Seed: 1}, nil)
	g.s.Close()
	select {
	case _, ok := <-g.s.Subscribe():
		if ok {
			t.Fatal("closed-session subscription yielded a transition")
		}
	case <-time.After(time.Second):
		t.Fatal("closed-session subscription not closed")
	}
}

// TestSessionSubscribeFanoutDuringProbeRace hammers Subscribe
// registration and the health fan-out concurrently across a
// fail-then-heal cycle: a dial that fails a set number of times, then a
// first station that probes the healed link. Run under -race it pins the
// subscriber bookkeeping: the fan-out walks the subscriber list from the
// supervisor's goroutine while new subscribers register from many
// others, right through the heal.
func TestSessionSubscribeFanoutDuringProbeRace(t *testing.T) {
	const failDials = 20
	var dials atomic.Int64
	g := newSessionRig(t, ghm.PipeFaults{Seed: 1}, func(c *ghm.SessionConfig) {
		dial := c.Dial
		c.Dial = func() (ghm.PacketConn, error) {
			if dials.Add(1) <= failDials {
				return nil, errors.New("no route")
			}
			return dial()
		}
		c.WatchdogWindow = 60 * time.Millisecond
		c.WatchdogInterval = 5 * time.Millisecond
		c.RestartBackoff = time.Millisecond
		c.RestartBackoffMax = 2 * time.Millisecond
	})
	s := g.s

	// Subscribers churn for the whole cycle: half drain until
	// their channel closes, half abandon their channel at once — the
	// abandoned ones must cost nothing.
	stopChurn := make(chan struct{})
	var churn, drains sync.WaitGroup
	for i := 0; i < 4; i++ {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for {
				select {
				case <-stopChurn:
					return
				default:
				}
				c := s.Subscribe()
				drains.Add(1)
				go func() {
					defer drains.Done()
					for range c {
					}
				}()
				_ = s.Subscribe() // abandoned on purpose
				time.Sleep(time.Millisecond)
			}
		}()
	}

	waitFor := func(what string, pred func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !pred() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (stats %+v)", what, s.Stats())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitFor("failed dials", func() bool { return s.Stats().StartFailures >= failDials })

	// The dial has healed: the first station comes up and committing a
	// transfer makes the session healthy while the churn keeps
	// registering subscribers.
	if _, err := s.Enqueue([]byte("probe-payload")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(testCtx(t)); err != nil {
		t.Fatalf("flush through probe: %v (stats %+v)", err, s.Stats())
	}
	waitFor("healthy", func() bool { return s.Health() == ghm.HealthHealthy })

	close(stopChurn)
	churn.Wait()
	s.Close() // closes every subscriber channel; draining goroutines exit
	drains.Wait()
}

// TestSessionDeadStationFailsOver: when the live station's conn closes
// under it, the session replaces the station at once instead of
// resending into the dead conn until the watchdog fires. MaxAttempts
// would run out within microseconds of such a spin.
func TestSessionDeadStationFailsOver(t *testing.T) {
	var mu sync.Mutex
	var last ghm.PacketConn
	g := newSessionRig(t, ghm.PipeFaults{Seed: 1}, func(c *ghm.SessionConfig) {
		dial := c.Dial
		c.Dial = func() (ghm.PacketConn, error) {
			conn, err := dial()
			mu.Lock()
			last = conn
			mu.Unlock()
			return conn, err
		}
		c.MaxAttempts = 5
	})
	if _, err := g.s.Enqueue([]byte("warmup")); err != nil {
		t.Fatal(err)
	}
	if err := g.s.Flush(testCtx(t)); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	last.Close() // the live station's view: its Sends now fail closed
	mu.Unlock()
	before := g.s.Stats()
	if _, err := g.s.Enqueue([]byte("after the view died")); err != nil {
		t.Fatal(err)
	}
	if err := g.s.Flush(testCtx(t)); err != nil {
		t.Fatalf("flush past a dead station: %v (stats %+v)", err, g.s.Stats())
	}
	st := g.s.Stats()
	if st.Restarts <= before.Restarts || st.Wedges != before.Wedges {
		t.Errorf("want a restart without the watchdog: before %+v, after %+v", before, st)
	}
	if n := st.Resubmits - before.Resubmits; n > 2 {
		t.Errorf("%d resubmits into the dead station, want at most 2", n)
	}
}
