package netlink

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ghm/internal/core"
	"ghm/internal/metrics"
	"ghm/internal/testutil"
)

const testRetry = 300 * time.Microsecond

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// depths are the window depths the station suite runs at: the paper's
// single slot, the smallest real window, and the benchmark's.
var depths = []int{1, 2, 8}

// forDepths runs fn as one subtest per depth, so no station behaviour is
// checked at only one.
func forDepths(t *testing.T, fn func(t *testing.T, k int)) {
	t.Helper()
	for _, k := range depths {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) { fn(t, k) })
	}
}

// newStations builds a depth-k Sender/Receiver pair over a pipe.
func newStations(t *testing.T, k int, cfg PipeConfig, reg *metrics.Registry) (*Sender, *Receiver) {
	t.Helper()
	a, b := Pipe(cfg)
	s, err := NewSender(a, SenderConfig{Window: k, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(b, ReceiverConfig{Window: k, RetryInterval: testRetry, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		r.Close()
	})
	return s, r
}

func TestPipePerfectRoundTrip(t *testing.T) {
	a, b := Pipe(PipeConfig{Seed: 1})
	defer a.Close()
	if err := a.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	p, err := b.Recv()
	if err != nil || !bytes.Equal(p, []byte("ping")) {
		t.Fatalf("Recv = %q, %v", p, err)
	}
	if err := b.Send([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	p, err = a.Recv()
	if err != nil || !bytes.Equal(p, []byte("pong")) {
		t.Fatalf("Recv = %q, %v", p, err)
	}
}

func TestPipeDoesNotAliasBuffers(t *testing.T) {
	a, b := Pipe(PipeConfig{Seed: 2})
	defer a.Close()
	buf := []byte("orig")
	if err := a.Send(buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	p, err := b.Recv()
	if err != nil || !bytes.Equal(p, []byte("orig")) {
		t.Fatalf("pipe aliased the sender's buffer: %q, %v", p, err)
	}
}

func TestPipeTotalLoss(t *testing.T) {
	a, b := Pipe(PipeConfig{LinkModel: LinkModel{Loss: 1}, Seed: 3})
	defer a.Close()
	for i := 0; i < 20; i++ {
		if err := a.Send([]byte("gone")); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		b.Recv()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("packet crossed a total-loss pipe")
	case <-time.After(20 * time.Millisecond):
	}
	a.Close() // unblock the goroutine
	<-done
}

func TestPipeCloseUnblocksRecv(t *testing.T) {
	a, _ := Pipe(PipeConfig{Seed: 4})
	errc := make(chan error, 1)
	go func() {
		_, err := a.Recv()
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	a.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Recv err = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
	if err := a.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after close = %v, want ErrClosed", err)
	}
}

// goroutinesOf counts the live goroutines started by this package's
// non-test code.
func goroutinesOf() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if i := strings.LastIndex(g, "created by ghm/internal/netlink."); i >= 0 && !strings.Contains(g[i:], "_test.go") {
			n++
		}
	}
	return n
}

// awaitGoroutinesOf waits until goroutinesOf is n. A closed conn's
// goroutines exit after Close returns, so a count taken at once can still
// see them.
func awaitGoroutinesOf(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); goroutinesOf() != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of this package's goroutines running after 2s, want %d", goroutinesOf(), n)
		}
	}
}

// TestPipeGoroutines pins what a pipe costs in goroutines: a perfect one
// none at all, a faulty one the impairment stage's one per direction —
// and closing one end takes them all down.
func TestPipeGoroutines(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	awaitGoroutinesOf(t, 0) // earlier tests' conns are closed
	const ms = time.Millisecond
	for _, tc := range []struct {
		name string
		cfg  PipeConfig
		want int
	}{
		{"perfect", PipeConfig{}, 0},
		{"lossy", PipeConfig{LinkModel: LinkModel{Loss: 0.1, DupProb: 0.1, ReorderProb: 0.1}, Seed: 1}, 2},
		{"latent", PipeConfig{LinkModel: LinkModel{Latency: ms, Jitter: ms, Bandwidth: 1 << 20, Burst: &GilbertElliott{PGoodBad: 0.1, PBadGood: 0.5, LossBad: 0.5}}, Seed: 1}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := Pipe(tc.cfg)
			for i := 0; i < 50; i++ { // anything started lazily has started by now
				a.Send([]byte("ping"))
				b.Send([]byte("pong"))
			}
			if got := goroutinesOf(); got != tc.want {
				t.Errorf("Pipe started %d goroutines, want %d", got, tc.want)
			}
			b.Close()               // one end only
			awaitGoroutinesOf(t, 0) // the next case counts from zero
		})
	}
}

func TestSessionPerfectLink(t *testing.T) {
	forDepths(t, func(t *testing.T, k int) {
		s, r := newStations(t, k, PipeConfig{Seed: 5}, nil)
		ctx := testCtx(t)
		for i := 0; i < 20; i++ {
			msg := []byte(fmt.Sprintf("msg-%d", i))
			if err := s.Send(ctx, msg); err != nil {
				t.Fatalf("Send %d: %v", i, err)
			}
			got, err := r.Recv(ctx)
			if err != nil || !bytes.Equal(got, msg) {
				t.Fatalf("Recv %d = %q, %v", i, got, err)
			}
		}
	})
}

func TestSessionFaultyLink(t *testing.T) {
	forDepths(t, func(t *testing.T, k int) {
		s, r := newStations(t, k, PipeConfig{
			LinkModel: LinkModel{Loss: 0.3, DupProb: 0.3, ReorderProb: 0.3, ReleaseEvery: 50 * time.Microsecond},
			Seed:      6,
		}, nil)
		ctx := testCtx(t)
		const n = 30
		errc := make(chan error, 1)
		go func() {
			for i := 0; i < n; i++ {
				if err := s.Send(ctx, []byte(fmt.Sprintf("msg-%d", i))); err != nil {
					errc <- fmt.Errorf("send %d: %w", i, err)
					return
				}
			}
			errc <- nil
		}()
		for i := 0; i < n; i++ {
			got, err := r.Recv(ctx)
			if err != nil {
				t.Fatalf("Recv %d: %v", i, err)
			}
			want := fmt.Sprintf("msg-%d", i)
			if string(got) != want {
				t.Fatalf("Recv %d = %q, want %q (order violated)", i, got, want)
			}
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	})
}

func TestSenderCrashFailsPendingSend(t *testing.T) {
	forDepths(t, func(t *testing.T, k int) {
		// A silent link (total loss) guarantees the Send is still pending
		// when the crash hits.
		s, _ := newStations(t, k, PipeConfig{LinkModel: LinkModel{Loss: 1}, Seed: 7}, nil)
		ctx := testCtx(t)
		errc := make(chan error, 1)
		go func() { errc <- s.Send(ctx, []byte("doomed")) }()
		time.Sleep(5 * time.Millisecond)
		s.Crash()
		select {
		case err := <-errc:
			if !errors.Is(err, ErrCrashed) {
				t.Fatalf("Send after crash = %v, want ErrCrashed", err)
			}
		case <-time.After(time.Second):
			t.Fatal("Send did not fail on crash")
		}
	})
}

func TestSenderRecoversAfterCrash(t *testing.T) {
	forDepths(t, func(t *testing.T, k int) {
		s, r := newStations(t, k, PipeConfig{Seed: 8}, nil)
		ctx := testCtx(t)
		if err := s.Send(ctx, []byte("before")); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Recv(ctx); err != nil {
			t.Fatal(err)
		}
		s.Crash()
		if err := s.Send(ctx, []byte("after")); err != nil {
			t.Fatalf("Send after crash: %v", err)
		}
		got, err := r.Recv(ctx)
		if err != nil || !bytes.Equal(got, []byte("after")) {
			t.Fatalf("Recv = %q, %v", got, err)
		}
	})
}

func TestReceiverCrashRecovery(t *testing.T) {
	forDepths(t, func(t *testing.T, k int) {
		s, r := newStations(t, k, PipeConfig{Seed: 9}, nil)
		ctx := testCtx(t)
		if err := s.Send(ctx, []byte("one")); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Recv(ctx); err != nil {
			t.Fatal(err)
		}
		r.Crash()
		if err := s.Send(ctx, []byte("two")); err != nil {
			t.Fatalf("Send after receiver crash: %v", err)
		}
		got, err := r.Recv(ctx)
		if err != nil || !bytes.Equal(got, []byte("two")) {
			t.Fatalf("Recv = %q, %v", got, err)
		}
	})
}

func TestSendContextCancelCrashesStation(t *testing.T) {
	forDepths(t, func(t *testing.T, k int) {
		s, r := newStations(t, k, PipeConfig{LinkModel: LinkModel{Loss: 1}, Seed: 10}, nil)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		if err := s.Send(ctx, []byte("stuck")); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Send = %v, want deadline exceeded", err)
		}
		// The station crashed itself, so the next Send must not see ErrBusy.
		ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel2()
		if err := s.Send(ctx2, []byte("next")); errors.Is(err, core.ErrBusy) {
			t.Fatalf("Send after cancel = %v; station did not reset", err)
		}
		_ = r
	})
}

func TestCloseSemantics(t *testing.T) {
	forDepths(t, func(t *testing.T, k int) {
		s, r := newStations(t, k, PipeConfig{Seed: 11}, nil)
		s.Close()
		r.Close()
		// Close is idempotent.
		s.Close()
		r.Close()
		ctx := testCtx(t)
		if err := s.Send(ctx, []byte("x")); err == nil {
			t.Fatal("Send on closed sender succeeded")
		}
		if _, err := r.Recv(ctx); !errors.Is(err, ErrClosed) {
			t.Fatalf("Recv on closed receiver = %v, want ErrClosed", err)
		}
	})
}

func TestSessionStats(t *testing.T) {
	forDepths(t, func(t *testing.T, k int) {
		s, r := newStations(t, k, PipeConfig{Seed: 12}, nil)
		ctx := testCtx(t)
		if err := s.Send(ctx, []byte("counted")); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Recv(ctx); err != nil {
			t.Fatal(err)
		}
		if s.Stats().OKs != 1 {
			t.Errorf("sender OKs = %d", s.Stats().OKs)
		}
		if r.Stats().Delivered != 1 {
			t.Errorf("receiver Delivered = %d", r.Stats().Delivered)
		}
	})
}

func TestUDPSession(t *testing.T) {
	la, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	lb, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		la.Close()
		t.Skipf("no loopback UDP: %v", err)
	}
	aAddr := la.LocalAddr().(*net.UDPAddr)
	bAddr := lb.LocalAddr().(*net.UDPAddr)
	ca := NewUDPConn(la, bAddr)
	cb := NewUDPConn(lb, aAddr)

	s, err := NewSender(ca, SenderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r, err := NewReceiver(cb, ReceiverConfig{RetryInterval: testRetry})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ctx := testCtx(t)
	for i := 0; i < 5; i++ {
		msg := []byte(fmt.Sprintf("udp-%d", i))
		if err := s.Send(ctx, msg); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
		got, err := r.Recv(ctx)
		if err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("Recv %d = %q, %v", i, got, err)
		}
	}
}

func TestDialUDPErrors(t *testing.T) {
	if _, err := DialUDP("not an addr", "127.0.0.1:9"); err == nil {
		t.Error("bad local address accepted")
	}
	if _, err := DialUDP("127.0.0.1:0", "not an addr"); err == nil {
		t.Error("bad remote address accepted")
	}
}

// TestStationHoldsAckWhileFull pins what a full delivery buffer costs: the
// lag of the Recv caller, and not one packet. Recv is withheld for a
// buffer's worth of messages; the Send whose delivery fills the buffer
// waits, its ack held, while nothing is shed and no DATA goes out twice;
// and from the Recv that makes room the Send must confirm in a small
// fraction of a RetryInterval — one second here, so that a confirmation
// paced by the regular RETRY cannot be mistaken for the one the room
// brings. Three episodes in a row: a regular firing landing in one
// episode's window by chance cannot land in all three. Then a crash^R, and
// after it a Close, each while an ack is held: neither strands the Send
// waiting for it, and every message still arrives in order.
func TestStationHoldsAckWhileFull(t *testing.T) {
	for _, k := range []int{1, 8} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) { testStationHoldsAckWhileFull(t, k) })
	}
}

func testStationHoldsAckWhileFull(t *testing.T, k int) {
	const interval = time.Second
	reg := metrics.New()
	a, b := Pipe(PipeConfig{Seed: 3})
	s, err := NewSender(a, SenderConfig{Window: k, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r, err := NewReceiver(b, ReceiverConfig{Window: k, RetryInterval: interval, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := testCtx(t)
	counter := func(name string) int64 { return reg.Counter(name).Value() }

	// The first message on each slot waits for the slot's first RETRY (an
	// idle transmitter adopts only a challenge that vouches for its last
	// transfer), so the slots are warmed up together; after that every
	// reply carries the slot's next challenge and no message needs the
	// timer again — until an ack is held.
	var warm sync.WaitGroup
	for i := 0; i < k; i++ {
		warm.Add(1)
		go func() {
			defer warm.Done()
			if err := s.Send(ctx, []byte("warm-up")); err != nil {
				t.Errorf("warm-up Send: %v", err)
			}
		}()
	}
	warm.Wait()
	for i := 0; i < k; i++ {
		if got, err := r.Recv(ctx); err != nil || string(got) != "warm-up" {
			t.Fatalf("Recv = %q, %v; want the warm-up message", got, err)
		}
	}
	sent, received := 0, 0
	next := func() []byte {
		sent++
		return []byte(fmt.Sprintf("message %d", sent))
	}
	send := func() error { return s.Send(ctx, next()) }
	sendAsync := func() chan error {
		errc, msg := make(chan error, 1), next()
		go func() { errc <- s.Send(ctx, msg) }()
		return errc
	}
	// recv takes the next message, or reports the redelivery of the last
	// one when dup allows it.
	recv := func(dup bool) (redelivered bool) {
		t.Helper()
		got, err := r.Recv(ctx)
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if dup && string(got) == fmt.Sprintf("message %d", received) {
			return true
		}
		received++
		if want := fmt.Sprintf("message %d", received); string(got) != want {
			t.Fatalf("Recv = %q, want %q", got, want)
		}
		return false
	}
	fill := func() {
		t.Helper()
		for sent-received < k*deliveryBuffer-1 {
			if err := send(); err != nil {
				t.Fatalf("Send %d: %v", sent, err)
			}
		}
	}
	// hold sends the message whose delivery fills the buffer and checks
	// that its Send waits for the held ack.
	hold := func() chan error {
		t.Helper()
		held := counter(mRxAcksHeld)
		errc := sendAsync()
		waitCounter(t, reg, mRxAcksHeld, held+1)
		select {
		case err := <-errc:
			t.Fatalf("Send %d = %v with the delivery buffer full", sent, err)
		default:
		}
		return errc
	}

	fill()
	for episode := 1; episode <= 3; episode++ {
		errc := hold()
		start := time.Now()
		recv(false)
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("episode %d: Send = %v", episode, err)
			}
		case <-time.After(interval / 4):
			t.Fatalf("episode %d: the held ack did not go within %v of the Recv that made room (RetryInterval %v)", episode, interval/4, interval)
		}
		t.Logf("episode %d: confirmed %v after room was made", episode, time.Since(start))
	}
	if got := counter(mRxIngressShed); got != 0 {
		t.Errorf("rx.ingress_shed = %d: a full buffer shed a packet", got)
	}
	if got := counter(mTxPacketsSent); got != int64(k+sent) {
		t.Errorf("tx.packets_sent = %d for %d messages: a held ack cost a DATA", got, k+sent)
	}

	// A crash^R keeps the held mark: the slot stays silent until there is
	// room, and its fresh machine's RETRY then asks for the message again.
	// That redelivery is one the crash licenses; at depth 8 its seq drops
	// it, and at depth 1, which has no seq, Recv hands it over once. The
	// waiting Send confirms once the buffer drains.
	errc := hold()
	r.Crash()
	redelivered := 0
	for received < sent || redelivered < 1 && k == 1 {
		if recv(k == 1) {
			redelivered++
		}
	}
	if redelivered > 1 {
		t.Fatalf("%d redeliveries after one crash^R", redelivered)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Send after crash^R = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a crash^R while an ack was held stranded the Send waiting for it")
	}

	// A Close while an ack is held fails the waiting Send with the closed
	// link, and leaves every delivered message for Recv to drain.
	fill()
	errc = hold()
	r.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Send after the receiver closed = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a Close while an ack was held stranded the Send waiting for it")
	}
	for received < sent {
		recv(false)
	}
	if _, err := r.Recv(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv after the drain = %v, want ErrClosed", err)
	}
	if got := counter(mRxIngressShed); got != 0 {
		t.Errorf("rx.ingress_shed = %d: a full buffer shed a packet", got)
	}
}

// TestUDPConnDropsStrangers pins the peer filter to the whole address: the
// data link is a two-station system, so a datagram from another socket on
// the peer's host — same IP, different port — is not the peer's. The
// stranger's datagrams reach neither a raw Recv nor a station's counters:
// the only packet the station ever counts is the one the peer sent after
// them.
func TestUDPConnDropsStrangers(t *testing.T) {
	listen := func() *net.UDPConn {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Skipf("no loopback UDP: %v", err)
		}
		return c
	}
	la, lb, stranger := listen(), listen(), listen()
	defer stranger.Close()
	bAddr := lb.LocalAddr().(*net.UDPAddr)
	ca := NewUDPConn(la, bAddr)
	defer ca.Close()
	cb := NewUDPConn(lb, la.LocalAddr().(*net.UDPAddr))

	intrude := func() {
		for i := 0; i < 5; i++ {
			if _, err := stranger.WriteToUDP([]byte("from a third socket"), bAddr); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Loopback queues datagrams in the order of the send calls, so the
	// peer's packet arrives behind the stranger's five.
	intrude()
	if err := ca.Send([]byte("from the peer")); err != nil {
		t.Fatal(err)
	}
	if got, err := recvWithTimeout(t, cb); err != nil || string(got) != "from the peer" {
		t.Fatalf("Recv = %q, %v; want the peer's packet only", got, err)
	}

	reg := metrics.New()
	r, err := NewReceiver(cb, ReceiverConfig{RetryInterval: time.Hour, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	intrude()
	if err := ca.Send([]byte("not a protocol packet, but the peer's")); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, reg, mRxPacketsReceived, 1)
	// One packet reached the station (and was rejected as junk): no counter,
	// the station's or its engine's, can have seen more than one.
	for name, n := range reg.Snapshot().Counters {
		if n > 1 {
			t.Errorf("counter %s = %d after five datagrams from a stranger and one from the peer", name, n)
		}
	}
}
