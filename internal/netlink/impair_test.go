package netlink

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ghm/internal/engine"
	"ghm/internal/metrics"
	"ghm/internal/testutil"
)

// collectConn is a PacketConn recording every Send for inspection.
type collectConn struct {
	mu     sync.Mutex
	pkts   [][]byte
	closed bool
}

func (c *collectConn) Send(p []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.pkts = append(c.pkts, append([]byte(nil), p...))
	return nil
}

func (c *collectConn) Recv() ([]byte, error) { select {} }

func (c *collectConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

func (c *collectConn) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pkts)
}

// settle waits for the impairment engine to drain (counters stable).
func settle(t *testing.T, c *ImpairedConn, want func(ImpairStats) bool) ImpairStats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st := c.Stats(); want(st) {
			return st
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("impair engine did not settle: %+v", c.Stats())
	return ImpairStats{}
}

func TestImpairBurstDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) int64 {
		under := &collectConn{}
		c := Impair(under, ImpairConfig{
			LinkModel: LinkModel{Burst: &GilbertElliott{PGoodBad: 0.2, PBadGood: 0.4, LossBad: 0.9},
				Queue: 5000}, // isolate burst loss from queue drops
			Seed: seed,
		})
		defer c.Close()
		for i := 0; i < 500; i++ {
			c.Send([]byte("x"))
		}
		st := settle(t, c, func(st ImpairStats) bool { return st.Delivered+st.DropBurst >= 500 })
		return st.Delivered
	}
	a, b, other := run(11), run(11), run(12)
	if a != b {
		t.Errorf("same seed delivered %d then %d packets", a, b)
	}
	if a == other {
		t.Logf("note: seeds 11 and 12 delivered the same count %d (possible, just unlikely)", a)
	}
}

func TestImpairLatency(t *testing.T) {
	under := &collectConn{}
	const lat = 20 * time.Millisecond
	c := Impair(under, ImpairConfig{LinkModel: LinkModel{Latency: lat}, Seed: 3})
	defer c.Close()
	start := time.Now()
	if err := c.Send([]byte("timed")); err != nil {
		t.Fatal(err)
	}
	settle(t, c, func(st ImpairStats) bool { return st.Delivered == 1 })
	if elapsed := time.Since(start); elapsed < lat {
		t.Errorf("packet arrived after %v, want >= %v", elapsed, lat)
	}
}

func TestImpairBlackoutAndSetLoss(t *testing.T) {
	under := &collectConn{}
	c := Impair(under, ImpairConfig{Seed: 4})
	defer c.Close()

	c.SetBlackout(true)
	for i := 0; i < 10; i++ {
		c.Send([]byte("dark"))
	}
	st := settle(t, c, func(st ImpairStats) bool { return st.DropBlackout == 10 })
	if st.Delivered != 0 {
		t.Errorf("%d packets crossed a blackout", st.Delivered)
	}

	c.SetBlackout(false)
	c.SetLoss(1)
	for i := 0; i < 10; i++ {
		c.Send([]byte("lossy"))
	}
	settle(t, c, func(st ImpairStats) bool { return st.DropIID == 10 })

	c.SetLoss(0)
	for i := 0; i < 10; i++ {
		c.Send([]byte("clear"))
	}
	st = settle(t, c, func(st ImpairStats) bool { return st.Delivered == 10 })
	if under.count() != 10 {
		t.Errorf("underlying conn saw %d packets, want 10", under.count())
	}
	_ = st
}

func TestImpairBandwidthQueueCap(t *testing.T) {
	under := &collectConn{}
	// 1000 B/s and 100-byte packets: 10 packets/second; a burst of 50
	// against a 4-packet queue must mostly drop.
	c := Impair(under, ImpairConfig{LinkModel: LinkModel{Bandwidth: 1000, Queue: 4}, Seed: 6})
	defer c.Close()
	pkt := make([]byte, 100)
	for i := 0; i < 50; i++ {
		c.Send(pkt)
	}
	st := settle(t, c, func(st ImpairStats) bool {
		return st.DropQueue > 0 && st.Delivered+st.DropQueue >= 50
	})
	if st.DropQueue < 30 {
		t.Errorf("queue drops = %d, want most of the burst", st.DropQueue)
	}
}

// TestImpairQueueCapDropsRecycleNothing pins what the queue cap costs in
// memory: the fate is decided before any copy is made, so a packet the cap
// drops never gets a buffer. A burst of four times the cap through a link
// too slow to release any of it allocates the cap's worth of copies (plus
// the stage itself) — not one per packet sent.
func TestImpairQueueCapDropsRecycleNothing(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts under the race detector measure the detector")
	}
	const queue = 64
	pkt := make([]byte, 100)
	reg := metrics.New()
	var last ImpairStats
	allocs := testing.AllocsPerRun(5, func() {
		// 1000 B/s: the first packet is 100 ms on the wire, the burst is over long before.
		c := Impair(&collectConn{}, ImpairConfig{LinkModel: LinkModel{Bandwidth: 1000, Queue: queue}, Seed: 6, Metrics: reg})
		for i := 0; i < 4*queue; i++ {
			c.Send(pkt)
		}
		last = c.Stats()
		c.Close()
	})
	if last.DropQueue != 3*queue {
		t.Fatalf("queue drops = %d of %d sent, want %d", last.DropQueue, last.Sent, 3*queue)
	}
	if allocs > queue+freeBuffers {
		t.Errorf("a burst of %d packets against a queue of %d: %v allocs, want at most %d", 4*queue, queue, allocs, queue+freeBuffers)
	}
}

func TestImpairDuplication(t *testing.T) {
	under := &collectConn{}
	c := Impair(under, ImpairConfig{LinkModel: LinkModel{DupProb: 1}, Seed: 8})
	defer c.Close()
	for i := 0; i < 10; i++ {
		c.Send([]byte("twice"))
	}
	st := settle(t, c, func(st ImpairStats) bool { return st.Delivered == 20 })
	if st.Duplicated != 10 {
		t.Errorf("duplicated = %d, want 10", st.Duplicated)
	}
}

func TestImpairCloseUnblocksAndRejects(t *testing.T) {
	a, _ := Pipe(PipeConfig{Seed: 9})
	c := Impair(a, ImpairConfig{Seed: 9})
	errc := make(chan error, 1)
	go func() {
		_, err := c.Recv()
		errc <- err
	}()
	time.Sleep(2 * time.Millisecond)
	c.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Recv after close = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
	if err := c.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after close = %v, want ErrClosed", err)
	}
}

// flakyConn fails every third Send with a transient error: the regression
// guard for the silent-death bug where one failed Send killed the station
// loops for good.
type flakyConn struct {
	PacketConn
	n atomic.Int64
}

var errTransient = errors.New("transient network hiccup")

func (f *flakyConn) Send(p []byte) error {
	if f.n.Add(1)%3 == 0 {
		return errTransient
	}
	return f.PacketConn.Send(p)
}

func TestSessionSurvivesTransientSendErrors(t *testing.T) {
	a, b := Pipe(PipeConfig{Seed: 20})
	s, err := NewSender(&flakyConn{PacketConn: a}, SenderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r, err := NewReceiver(&flakyConn{PacketConn: b}, ReceiverConfig{RetryInterval: testRetry})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ctx := testCtx(t)
	for i := 0; i < 20; i++ {
		msg := []byte(fmt.Sprintf("flaky-%d", i))
		if err := s.Send(ctx, msg); err != nil {
			t.Fatalf("Send %d died on a transient error: %v", i, err)
		}
		got, err := r.Recv(ctx)
		if err != nil || string(got) != string(msg) {
			t.Fatalf("Recv %d = %q, %v", i, got, err)
		}
	}
}

// countSendsConn counts packets the receiver station emits.
type countSendsConn struct {
	PacketConn
	sends atomic.Int64
}

func (c *countSendsConn) Send(p []byte) error {
	c.sends.Add(1)
	return c.PacketConn.Send(p)
}

func TestReceiverRetryBackoffQuietsIdleLink(t *testing.T) {
	const base = time.Millisecond
	const idle = 300 * time.Millisecond

	run := func(backoff time.Duration) int64 {
		a, b := Pipe(PipeConfig{Seed: 21})
		s, err := NewSender(a, SenderConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		cb := &countSendsConn{PacketConn: b}
		r, err := NewReceiver(cb, ReceiverConfig{RetryInterval: base, RetryBackoffMax: backoff})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		time.Sleep(idle)
		count := cb.sends.Load()

		// The station must still work at full speed after the idle spell:
		// the first arrival snaps the interval back to base.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Send(ctx, []byte("wake")); err != nil {
			t.Fatalf("Send after idle backoff: %v", err)
		}
		if _, err := r.Recv(ctx); err != nil {
			t.Fatalf("Recv after idle backoff: %v", err)
		}
		return count
	}

	fixed := run(0)
	backed := run(64 * time.Millisecond)
	// ~300 retries at a fixed 1ms; with exponential backoff capped at
	// 64ms the same idle window fits ~12 ticks. Allow generous slack for
	// scheduler noise.
	if backed >= fixed/2 {
		t.Errorf("idle retries with backoff = %d, without = %d; want a clear reduction", backed, fixed)
	}
	if backed == 0 {
		t.Error("backoff silenced RETRY entirely; the protocol needs it infinitely often")
	}
}

func TestImpairedLinkDemuxDropsAreCounted(t *testing.T) {
	// Garbage arriving through an impaired link (duplicates and all) must
	// show up in the engine's drop accounting: every copy the link
	// delivers carries an unknown tag and is counted, never silently
	// swallowed the way the pre-engine pumps did.
	a, b := Pipe(PipeConfig{Seed: 68})
	imp := Impair(a, ImpairConfig{LinkModel: LinkModel{DupProb: 0.3, Queue: 1000}, Seed: 9, Metrics: metrics.New()})
	defer imp.Close()
	reg := metrics.New()
	eng := engine.New(b, engine.Config{MaxEndpoints: 1, Metrics: reg})
	defer eng.Close()
	if _, err := eng.Endpoint(0); err != nil {
		t.Fatal(err)
	}

	const n = 50
	for i := 0; i < n; i++ {
		if err := imp.Send([]byte{9, byte(i)}); err != nil { // tag 9: no such lane
			t.Fatal(err)
		}
	}
	st := settle(t, imp, func(st ImpairStats) bool { return st.Delivered >= n })
	waitCounter(t, reg, "link.demux_dropped", st.Delivered)
}

// TestImpairRestingHeap: what a faulty link holds is what it has in
// flight. A pipe shaped like the benchmark's link-wan — 2 ms latency,
// 2 ms jitter, 0.3 % loss, an impairment stage at each end — between
// stations at window 8, run through 2 000 messages by eight callers,
// leaves the heap at most 48 KB above where it stood before the pipe was
// made; it held 30–33 KB. With a hand-off channel as deep as the model's
// 256-packet queue cap in each stage and every free list a channel made
// at its bound, it held 62–71 KB. A first link, run and closed before the
// reading, keeps what a process makes once (the shared timer wheel, the
// packet pool) out of it.
func TestImpairRestingHeap(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's shadow state and sync.Pool drops move the heap")
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC() // the second empties what sync.Pool kept through the first
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	link := func(messages int) (closeLink func()) {
		reg := metrics.New()
		a, b := Pipe(PipeConfig{LinkModel: LinkModel{Latency: 2 * time.Millisecond, Jitter: 2 * time.Millisecond, Loss: 0.003}, Seed: 54})
		s, err := NewSender(a, SenderConfig{Window: 8, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReceiver(b, ReceiverConfig{Window: 8, RetryInterval: 9 * time.Millisecond, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		closeLink = func() {
			s.Close()
			r.Close()
		}
		ctx := testCtx(t)
		const callers = 8
		received := make(chan error, 1)
		go func() {
			for i := 0; i < messages; i++ {
				if _, err := r.Recv(ctx); err != nil {
					received <- err
					return
				}
			}
			received <- nil
		}()
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				msg := make([]byte, 64)
				for i := 0; i < messages/callers; i++ {
					if err := s.Send(ctx, msg); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if err := <-received; err != nil {
			closeLink()
			t.Fatal(err)
		}
		return closeLink
	}
	link(200)()
	before := heap()
	const messages = 2_000
	defer link(messages)()
	grew := heap() - before
	t.Logf("a faulty link at rest: %d KB", grew>>10)
	if grew > 48<<10 {
		t.Errorf("a link-wan-shaped link at rest after %d messages holds %d KB, want at most 48 KB", messages, grew>>10)
	}
}
