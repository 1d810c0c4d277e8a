package session

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"ghm/internal/metrics"
	"ghm/internal/netlink"
	"ghm/internal/supervise"
	"ghm/internal/verify"
)

// rig is a session wired to a plain receiver over a SharedConn, with a
// live conformance checker on both taps.
type rig struct {
	shared *netlink.SharedConn
	r      *netlink.Receiver
	s      *Session
	live   *verify.Live
	drain  sync.WaitGroup

	mu  sync.Mutex
	got []string
}

func (g *rig) delivered() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.got...)
}

func newRig(t *testing.T, mut func(*Config)) *rig {
	t.Helper()
	a, b := netlink.Pipe(netlink.PipeConfig{Seed: 1})
	g := &rig{shared: netlink.NewSharedConn(a), live: &verify.Live{}}

	var err error
	g.r, err = netlink.NewReceiver(b, netlink.ReceiverConfig{
		Tap:     g.live.Observe,
		Metrics: metrics.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	g.drain.Add(1)
	go func() {
		defer g.drain.Done()
		for {
			msg, err := g.r.Recv(context.Background())
			if err != nil {
				return
			}
			g.mu.Lock()
			g.got = append(g.got, string(msg))
			g.mu.Unlock()
		}
	}()

	cfg := Config{
		Dial:              g.shared.Attach,
		Tap:               g.live.Observe,
		WatchdogWindow:    150 * time.Millisecond,
		WatchdogInterval:  10 * time.Millisecond,
		RestartBackoff:    5 * time.Millisecond,
		RestartBackoffMax: 40 * time.Millisecond,
		Seed:              42,
		Metrics:           metrics.New(),
	}
	if mut != nil {
		mut(&cfg)
	}
	g.s, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		g.s.Close()
		g.r.Close()
		g.shared.Close()
		g.drain.Wait()
	})
	return g
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestSessionDeliversInOrder(t *testing.T) {
	g := newRig(t, nil)
	for i := 0; i < 10; i++ {
		if _, err := g.s.Enqueue([]byte(fmt.Sprintf("m-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.s.Flush(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	st := g.s.Stats()
	if st.Sent != 10 || st.Pending != 0 {
		t.Fatalf("stats: %+v", st)
	}
	// The last OK can precede the drain goroutine's pickup: wait briefly.
	deadline := time.Now().Add(2 * time.Second)
	for len(g.delivered()) < 10 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	delivered := g.delivered()
	if len(delivered) != 10 || delivered[0] != "m-00" || delivered[9] != "m-09" {
		t.Fatalf("delivered %v", delivered)
	}
	if rep := g.live.Report(); !rep.Clean() {
		t.Fatalf("conformance: %v", rep)
	}
}

func TestSessionSurvivesStationCrashes(t *testing.T) {
	g := newRig(t, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 40; i++ {
			g.s.Crash() // protocol-level crash^T, memory erased
			time.Sleep(2 * time.Millisecond)
		}
	}()
	for i := 0; i < 30; i++ {
		if _, err := g.s.Enqueue([]byte(fmt.Sprintf("c-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if err := g.s.Flush(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	if st := g.s.Stats(); st.Sent != 30 {
		t.Fatalf("stats: %+v", st)
	}
	if rep := g.live.Report(); !rep.Clean() {
		t.Fatalf("conformance: %v", rep)
	}
}

func TestWatchdogRestartsWedgedStation(t *testing.T) {
	sub := make(chan supervise.Transition, 64)
	g := newRig(t, func(c *Config) {
		c.OnTransition = func(tr supervise.Transition) {
			select {
			case sub <- tr:
			default:
			}
		}
	})

	// Confirm one message so the first incarnation is demonstrably live.
	if _, err := g.s.Enqueue([]byte("warmup")); err != nil {
		t.Fatal(err)
	}
	if err := g.s.Flush(testCtx(t)); err != nil {
		t.Fatal(err)
	}

	g.shared.WedgeCurrent() // half-dead socket: sends vanish, no progress

	if _, err := g.s.Enqueue([]byte("stuck-then-saved")); err != nil {
		t.Fatal(err)
	}
	if err := g.s.Flush(testCtx(t)); err != nil {
		t.Fatalf("flush across wedge: %v (stats %+v)", err, g.s.Stats())
	}

	st := g.s.Stats()
	if st.Wedges < 1 || st.Restarts < 1 {
		t.Fatalf("watchdog did not fire: %+v", st)
	}
	if st.Sent != 2 {
		t.Fatalf("stats: %+v", st)
	}
	// The health machine must have left Healthy and come back.
	var sawDegraded, sawHealthy bool
	for {
		select {
		case tr := <-sub:
			if tr.To == supervise.Degraded {
				sawDegraded = true
			}
			if sawDegraded && tr.To == supervise.Healthy {
				sawHealthy = true
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("transitions incomplete: degraded=%v healthy=%v", sawDegraded, sawHealthy)
		}
		if sawDegraded && sawHealthy {
			break
		}
	}
	if st := g.s.Stats(); st.Transitions < 2 {
		t.Errorf("Stats().Transitions = %d after a wedge and its heal, want >= 2", st.Transitions)
	}
	if rep := g.live.Report(); !rep.Clean() {
		t.Fatalf("conformance: %v", rep)
	}
}

func TestSessionWALPersistsAcrossSessions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "session.wal")

	// First life: enqueue while the socket is wedged so nothing confirms,
	// then close. The backlog must survive in the WAL.
	g1 := newRig(t, func(c *Config) { c.WALPath = path })
	g1.shared.WedgeCurrent()
	for i := 0; i < 3; i++ {
		if _, err := g1.s.Enqueue([]byte(fmt.Sprintf("wal-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	g1.s.Close()

	// Second life on a fresh link: the backlog drains by itself.
	g2 := newRig(t, func(c *Config) { c.WALPath = path })
	if err := g2.s.Flush(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	if st := g2.s.Stats(); st.Sent < 3 {
		t.Fatalf("recovered backlog not sent: %+v", st)
	}
}

// TestSessionDegradedWhileDialFails: a session whose Dial always fails
// keeps dialing, builds no station and reports itself Degraded.
func TestSessionDegradedWhileDialFails(t *testing.T) {
	s, err := New(Config{
		Dial: func() (netlink.PacketConn, error) {
			return nil, fmt.Errorf("no route")
		},
		RestartBackoff:    time.Millisecond,
		RestartBackoffMax: 2 * time.Millisecond,
		Seed:              7,
		Metrics:           metrics.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().StartFailures < 10 {
		if time.Now().After(deadline) {
			t.Fatalf("the session stopped dialing: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if st := s.Stats(); st.Health != supervise.Degraded || st.Generation != 0 || st.Restarts != 0 {
		t.Fatalf("stats %+v, want degraded with no station built", st)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing Dial accepted")
	}
}

// TestWindowedSessionSurvivesCrashesAndRestart runs a Window>1 session
// against a long-lived windowed receiver, with protocol crashes and a
// wedge-forced station rebuild in the middle. The rebuild is the hard
// part: the fresh incarnation's admission seqs restart at zero, and only
// the incarnation epoch keeps the surviving receiver from dropping the
// whole new stream as duplicates (the session would wedge forever).
// Delivery across restarts is at-least-once, so the assertion is every
// payload delivered one or more times, and nothing else.
func TestWindowedSessionSurvivesCrashesAndRestart(t *testing.T) {
	const window, n = 4, 40
	a, b := netlink.Pipe(netlink.PipeConfig{Seed: 7})
	shared := netlink.NewSharedConn(a)
	defer shared.Close()

	r, err := netlink.NewReceiver(b, netlink.ReceiverConfig{
		Window:        window,
		RetryInterval: 200 * time.Microsecond,
		Metrics:       metrics.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var mu sync.Mutex
	got := map[string]int{}
	var drain sync.WaitGroup
	drain.Add(1)
	go func() {
		defer drain.Done()
		for {
			msg, err := r.Recv(context.Background())
			if err != nil {
				return
			}
			mu.Lock()
			got[string(msg)]++
			mu.Unlock()
		}
	}()

	s, err := New(Config{
		Dial:              shared.Attach,
		Window:            window,
		WatchdogWindow:    150 * time.Millisecond,
		WatchdogInterval:  10 * time.Millisecond,
		RestartBackoff:    5 * time.Millisecond,
		RestartBackoffMax: 40 * time.Millisecond,
		Seed:              43,
		Metrics:           metrics.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Confirm one payload first so the incarnation is demonstrably live
	// before faults are injected (Crash and WedgeCurrent no-op while the
	// supervisor is still dialing).
	if _, err := s.Enqueue([]byte("w-warmup")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := s.Enqueue([]byte(fmt.Sprintf("w-%02d", i))); err != nil {
			t.Fatal(err)
		}
		switch i {
		case 10:
			s.Crash() // crash^T: the whole window's slots wiped at once
		case 20:
			shared.WedgeCurrent() // force a watchdog rebuild mid-stream
		case 30:
			s.Crash()
		}
	}
	if err := s.Flush(testCtx(t)); err != nil {
		t.Fatalf("flush: %v (stats %+v)", err, s.Stats())
	}
	if st := s.Stats(); st.Sent != n+1 || st.Pending != 0 || st.Restarts < 1 {
		t.Fatalf("stats: %+v (want Sent=%d, a restart)", st, n+1)
	}

	// The last OK can precede the drain pickup; wait for the counts.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		c := len(got)
		mu.Unlock()
		if c >= n+1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("w-%02d", i)
		if got[key] < 1 {
			t.Errorf("payload %q never delivered", key)
		}
	}
	if len(got) != n+1 { // the n payloads plus the warmup
		t.Errorf("delivered %d distinct payloads, want %d", len(got), n+1)
	}
}

// stalledSession builds a session on reg whose payloads never confirm:
// each incarnation dials a pipe of its own (which the station owns and
// closes) with no station at the far end. The caller closes the session; a
// t.Cleanup that did would keep it reachable until the test ends.
func stalledSession(t *testing.T, reg *metrics.Registry) *Session {
	t.Helper()
	s, err := New(Config{
		Dial: func() (netlink.PacketConn, error) {
			a, _ := netlink.Pipe(netlink.PipeConfig{Seed: 1})
			return a, nil
		},
		WatchdogWindow: time.Hour, Seed: 1, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBacklogGaugeSumsSessions: sessions sharing a registry report their
// total backlog under session.backlog, and a closed session's share goes
// with it. A gauge function that replaced its predecessor by name would
// read the depth of whichever session registered last.
func TestBacklogGaugeSumsSessions(t *testing.T) {
	reg := metrics.New()
	s1, s2 := stalledSession(t, reg), stalledSession(t, reg)
	defer s1.Close()
	defer s2.Close()
	for i := 0; i < 8; i++ {
		s := s1
		if i >= 3 {
			s = s2
		}
		if _, err := s.Enqueue([]byte("stuck")); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Snapshot().Gauges[mSessionBacklog]; got != 8 {
		t.Errorf("%s = %v with 3 and 5 payloads pending, want 8", mSessionBacklog, got)
	}
	s2.Close()
	if got := reg.Snapshot().Gauges[mSessionBacklog]; got != 3 {
		t.Errorf("%s = %v after closing the session holding 5, want 3", mSessionBacklog, got)
	}
	s1.Close()
	if got, ok := reg.Snapshot().Gauges[mSessionBacklog]; ok {
		t.Errorf("%s = %v with every session closed, want it gone", mSessionBacklog, got)
	}
}

// TestCloseReleasesQueueFromRegistry: once a session is closed nothing in
// its registry reaches its queue, so the queue — ring, kept buffers and
// all — can be collected while the registry lives on. The queue is part of
// a cycle (its Send is the session's method), which a finalizer would keep
// alive by itself, so the finalizer sits on a leaf only the session's
// config reaches: registry -> gauge function -> queue -> session -> Dial.
func TestCloseReleasesQueueFromRegistry(t *testing.T) {
	reg := metrics.New()
	collected := make(chan struct{})
	func() {
		leaf := new([256]byte)
		runtime.SetFinalizer(leaf, func(*[256]byte) { close(collected) })
		s, err := New(Config{
			Dial: func() (netlink.PacketConn, error) {
				runtime.KeepAlive(leaf)
				a, _ := netlink.Pipe(netlink.PipeConfig{Seed: 1})
				return a, nil
			},
			WatchdogWindow: time.Hour, Seed: 1, Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Enqueue(make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}()
	for deadline := time.Now().Add(10 * time.Second); ; {
		runtime.GC()
		select {
		case <-collected:
			reg.Snapshot() // the registry outlived the session
			return
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("a closed session is still reachable")
		}
	}
}
